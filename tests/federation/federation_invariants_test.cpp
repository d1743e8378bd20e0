// Randomized chaos harness for the federation layer — the cross-campus
// counterpart of tests/sched/coordinator_invariants_test.cpp.
//
// Drives a seeded random schedule of submissions, node churn, FULL-REGION
// outages and WAN partitions against a small mesh federation (real
// Platforms, gateways, replicated directories, capped WAN) and after every
// settle asserts the invariants no deterministic scenario test covers:
//
//   * global job conservation — every submitted job is known to AT MOST
//     one coordinator (never admitted twice) and to at least one
//     coordinator or an in-flight gateway hand-off (never lost), at any
//     cut, under any combination of outages and partitions;
//   * provenance chains — acyclic (no region twice: the path-vector loop
//     avoidance rule), rooted at the origin region recorded in the DB,
//     terminating at the hosting region, matching the recorded route;
//   * per-gateway accounting — jobs_withdrawn == transfers_delivered +
//     forwards_returned + withdrawn_in_flight;
//   * per-region capacity — the O(1) capacity-summary counters equal a
//     full directory rescan;
//   * convergence — once partitions heal and gossip quiesces, every
//     replica holds every region at its ground-truth capacity, fresh, and
//     the version vectors agree.
//
// The seed of a failing campaign is printed via SCOPED_TRACE for exact
// reproduction (also settable with GPUNION_INVARIANT_SEED; CI runs three
// fixed seeds plus a randomized one on top of the default sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gpunion/federated_platform.h"
#include "tests/sched/capacity_rescan.h"
#include "util/rng.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

constexpr int kRegions = 3;
constexpr int kNodesPerRegion = 2;

CampusConfig chaos_campus(const std::string& prefix) {
  CampusConfig config;
  for (int i = 0; i < kNodesPerRegion; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090(prefix + "-ws-" + std::to_string(i)),
         "group-" + prefix});
  }
  config.storage.push_back({"nas-" + prefix, 512ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

federation::RegionPolicy chaos_policy() {
  federation::RegionPolicy policy;
  policy.digest_interval = 5.0;
  policy.forward_after = 8.0;
  policy.forward_timeout = 10.0;
  policy.forward_retry_backoff = 20.0;
  policy.reservation_ttl = 60.0;
  policy.forward_interactive = true;
  policy.max_interactive_rtt = 0.2;  // generous: partitions do the chaos
  return policy;
}

std::string region_name(int index) { return "r" + std::to_string(index); }

std::string join_chain(const std::vector<std::string>& chain) {
  std::string out;
  for (const auto& hop : chain) {
    if (!out.empty()) out += '>';
    out += hop;
  }
  return out;
}

/// All cross-cutting federation invariants, checkable at ANY cut (mid-
/// partition, mid-outage, transfers in flight).
void check_invariants(FederatedPlatform& fed,
                      const std::vector<std::string>& submitted_ids) {
  // --- Global job conservation ----------------------------------------------
  for (const std::string& job_id : submitted_ids) {
    int hosted = 0;
    int in_flight = 0;
    for (const auto& name : fed.region_names()) {
      if (fed.region(name).coordinator().job(job_id) != nullptr) ++hosted;
      if (fed.gateway(name).forwarding(job_id)) ++in_flight;
    }
    EXPECT_LE(hosted, 1) << job_id << " admitted in two regions at once";
    EXPECT_GE(hosted + in_flight, 1) << job_id << " lost by the federation";
  }

  for (const auto& name : fed.region_names()) {
    auto& platform = fed.region(name);
    auto& gateway = fed.gateway(name);
    const auto& gw = gateway.stats();

    // --- Per-gateway accounting identity ------------------------------------
    EXPECT_EQ(static_cast<std::uint64_t>(
                  platform.coordinator().stats().jobs_withdrawn),
              gw.transfers_delivered + gw.forwards_returned +
                  static_cast<std::uint64_t>(gateway.withdrawn_in_flight()))
        << name << " withdrawal accounting drifted";

    // --- Provenance chains: acyclic, rooted, terminated, recorded -----------
    // The row to compare against is the latest one naming THIS region as
    // executor: a job that chained onward leaves a newer onward-hop row
    // (executing = the next region) in this database too.
    std::map<std::string, const db::JobProvenance*> hosted_rows;
    for (const auto& row : platform.database().provenance_log()) {
      if (row.executing_region == name) hosted_rows[row.job_id] = &row;
    }
    for (const auto& [job_id, chain] : gateway.hosted_chains()) {
      ASSERT_GE(chain.size(), 2u) << job_id;
      EXPECT_EQ(chain.back(), name)
          << job_id << " chain does not end at its host";
      std::set<std::string> unique(chain.begin(), chain.end());
      EXPECT_EQ(unique.size(), chain.size())
          << job_id << " chain has a cycle: " << join_chain(chain);
      auto row = hosted_rows.find(job_id);
      ASSERT_NE(row, hosted_rows.end())
          << job_id << " hosted without provenance";
      EXPECT_EQ(row->second->origin_region, chain.front())
          << job_id << " chain not rooted at the recorded origin";
      EXPECT_EQ(row->second->route, join_chain(chain)) << job_id;
    }

    // --- Capacity counters vs a directory rescan ----------------------------
    sched::expect_capacity_matches_rescan(platform.coordinator().directory(),
                                          name);
  }
}

/// Post-drain checks: everything settled, replicas converged.
void check_quiesced(FederatedPlatform& fed,
                    const std::vector<std::string>& submitted_ids) {
  // Nothing in flight anywhere, and every job is in exactly one region.
  for (const auto& name : fed.region_names()) {
    EXPECT_EQ(fed.gateway(name).withdrawn_in_flight(), 0) << name;
  }
  for (const std::string& job_id : submitted_ids) {
    int hosted = 0;
    for (const auto& name : fed.region_names()) {
      const sched::JobRecord* record =
          fed.region(name).coordinator().job(job_id);
      if (record == nullptr) continue;
      ++hosted;
      EXPECT_TRUE(sched::job_phase_terminal(record->phase))
          << job_id << " still " << sched::job_phase_name(record->phase)
          << " after the drain";
    }
    EXPECT_EQ(hosted, 1) << job_id;
  }

  // Hand-off atomicity at quiescence: every transfer the senders count
  // delivered is one the receivers count hosted.
  std::uint64_t delivered = 0;
  std::uint64_t taken = 0;
  for (const auto& name : fed.region_names()) {
    delivered += fed.gateway(name).stats().transfers_delivered;
    taken += fed.gateway(name).stats().remote_jobs_taken;
  }
  EXPECT_EQ(delivered, taken);

  // Replica convergence to ground truth: capacity is stable at the end of
  // the drain, so every replica's entry for every region must match that
  // region's live summary, be fresh, and the version vectors must agree.
  std::map<std::string, std::uint64_t> reference_vector;
  bool have_reference = false;
  for (const auto& name : fed.region_names()) {
    const federation::RegionDirectory& directory =
        fed.gateway(name).directory();
    for (const auto& other : fed.region_names()) {
      const federation::DirectoryEntry* entry = directory.entry(other);
      ASSERT_NE(entry, nullptr) << name << " lost track of " << other;
      sched::CapacitySummary truth =
          fed.region(other).coordinator().directory().capacity_summary();
      EXPECT_EQ(entry->capacity.nodes, truth.nodes) << name << "/" << other;
      EXPECT_EQ(entry->capacity.total_gpus, truth.total_gpus)
          << name << "/" << other;
      EXPECT_EQ(entry->capacity.free_gpus, truth.free_gpus)
          << name << "/" << other;
      EXPECT_EQ(entry->capacity.schedulable_nodes, truth.schedulable_nodes)
          << name << "/" << other;
      EXPECT_LE(fed.env().now() - entry->generated_at,
                2 * chaos_policy().digest_interval + 0.5)
          << name << " holds a stale " << other;
    }
    auto vector = directory.version_vector();
    if (!have_reference) {
      reference_vector = vector;
      have_reference = true;
    } else {
      EXPECT_EQ(vector, reference_vector) << name;
    }
  }
}

/// Aggregate coverage across the sweep: green means nothing unless the
/// campaigns actually crossed campuses, died mid-host and partitioned.
struct SweepCoverage {
  int submitted = 0;
  int completed = 0;
  int interruptions = 0;
  std::uint64_t transfers_delivered = 0;
  std::uint64_t reroutes_or_returns = 0;
  std::size_t longest_chain = 0;
  int region_outages = 0;
  int wan_partitions = 0;
};

void run_one_seed(std::uint64_t seed, int rounds,
                  SweepCoverage* coverage = nullptr) {
  SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  sim::Environment env(seed);

  FederationConfig config;
  for (int r = 0; r < kRegions; ++r) {
    config.regions.push_back(
        {region_name(r), chaos_campus(region_name(r)), chaos_policy()});
  }
  // Asymmetric WAN distances, fixed per seed.
  for (int a = 0; a < kRegions; ++a) {
    for (int b = a + 1; b < kRegions; ++b) {
      config.links.push_back(
          {region_name(a), region_name(b), rng.uniform(0.003, 0.040)});
    }
  }
  config.wan.base_latency = 0.010;
  config.wan.federation_wan_gbps = 1.0;
  config.metrics_interval = 1e9;
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  int next_job = 0;
  std::vector<std::string> submitted_ids;
  std::vector<bool> partitioned(kRegions, false);
  int outages = 0;
  int partitions = 0;

  auto random_region = [&] {
    return static_cast<int>(rng.uniform_int(0, kRegions - 1));
  };
  auto submit_one = [&] {
    const int r = random_region();
    auto& coordinator = fed.region(region_name(r)).coordinator();
    const std::string id = "job-" + std::to_string(next_job++);
    const std::string group = "group-" + region_name(r);
    if (rng.bernoulli(0.25)) {
      (void)coordinator.submit(workload::make_interactive_session(
          id, rng.uniform(0.005, 0.012), group, env.now()));
    } else {
      auto job = workload::make_training_job(
          id, workload::cnn_small(), rng.uniform(0.006, 0.02), group,
          env.now());
      job.checkpoint_interval = 10.0;
      (void)coordinator.submit(std::move(job));
    }
    submitted_ids.push_back(id);
  };

  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const int burst = static_cast<int>(rng.uniform_int(1, 4));
    for (int b = 0; b < burst; ++b) {
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3:
          submit_one();
          break;
        case 4: {  // single-node churn inside a random region
          const int r = random_region();
          workload::Interruption event;
          event.at = env.now();
          event.machine_id = Platform::machine_id_for(
              region_name(r) + "-ws-" +
              std::to_string(rng.uniform_int(0, kNodesPerRegion - 1)));
          event.kind = rng.bernoulli(0.4)
                           ? agent::DepartureKind::kScheduled
                           : (rng.bernoulli(0.5)
                                  ? agent::DepartureKind::kEmergency
                                  : agent::DepartureKind::kTemporary);
          event.downtime = rng.uniform(10.0, 50.0);
          fed.region(region_name(r)).inject_interruption(event);
          break;
        }
        case 5: {  // full-region outage: displaced guests must chain on
          const int r = random_region();
          fed.inject_region_outage(region_name(r),
                                   rng.uniform(30.0, 90.0));
          ++outages;
          break;
        }
        case 6: {  // WAN partition of one region's gateway
          const int r = random_region();
          if (partitioned[r]) break;
          partitioned[r] = true;
          ++partitions;
          fed.set_region_wan_partitioned(region_name(r), true);
          env.schedule_after(rng.uniform(10.0, 40.0), [&fed, &partitioned,
                                                       r] {
            partitioned[r] = false;
            fed.set_region_wan_partitioned(region_name(r), false);
          });
          break;
        }
        case 7: {  // cancel a random job wherever it currently lives
          if (submitted_ids.empty()) break;
          const std::string& id =
              submitted_ids[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(submitted_ids.size() - 1)))];
          for (const auto& name : fed.region_names()) {
            if (fed.region(name).coordinator().job(id) != nullptr) {
              (void)fed.region(name).coordinator().cancel(id);
              break;
            }
          }
          break;
        }
        default:
          submit_one();
          break;
      }
    }
    env.run_until(env.now() + rng.uniform(5.0, 30.0));
    check_invariants(fed, submitted_ids);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Drain: heal every partition, let outage downtimes lapse, transfers
  // retry through, queues empty and gossip quiesce — then re-assert
  // everything plus the quiescence-only invariants.
  for (int r = 0; r < kRegions; ++r) {
    partitioned[r] = false;
    fed.set_region_wan_partitioned(region_name(r), false);
  }
  env.run_until(env.now() + 700.0);
  // Snap the cut just past a gossip tick (all gateways tick on the same
  // 5 s grid): the final pushes have landed everywhere and no new tick has
  // fired, so replica version vectors must agree EXACTLY.
  const double tick = chaos_policy().digest_interval;
  env.run_until(std::ceil(env.now() / tick) * tick + 0.5);
  check_invariants(fed, submitted_ids);
  if (::testing::Test::HasFatalFailure()) return;
  check_quiesced(fed, submitted_ids);

  if (coverage != nullptr) {
    coverage->submitted += static_cast<int>(submitted_ids.size());
    for (const auto& name : fed.region_names()) {
      const auto& stats = fed.region(name).coordinator().stats();
      coverage->completed += stats.jobs_completed;
      coverage->interruptions += stats.interruptions;
      const auto& gw = fed.gateway(name).stats();
      coverage->transfers_delivered += gw.transfers_delivered;
      coverage->reroutes_or_returns += gw.reroutes + gw.forwards_returned;
      for (const auto& [job_id, chain] : fed.gateway(name).hosted_chains()) {
        coverage->longest_chain =
            std::max(coverage->longest_chain, chain.size());
      }
    }
    coverage->region_outages += outages;
    coverage->wan_partitions += partitions;
  }
}

TEST(FederationInvariantsTest, RandomizedChaosCampaign) {
  // GPUNION_INVARIANT_SEED pins the campaign to one seed family (CI runs
  // three fixed seeds plus a $RANDOM one); the default sweep covers 60.
  const char* pinned = std::getenv("GPUNION_INVARIANT_SEED");
  SweepCoverage coverage;
  int campaigns = 0;
  if (pinned != nullptr) {
    const std::uint64_t base = std::strtoull(pinned, nullptr, 10);
    for (std::uint64_t seed = base; seed < base + 15; ++seed) {
      run_one_seed(seed, /*rounds=*/10, &coverage);
      ++campaigns;
      if (::testing::Test::HasFatalFailure()) return;
    }
  } else {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      run_one_seed(seed, /*rounds=*/10, &coverage);
      ++campaigns;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The sweep only counts if it actually crossed campuses, killed regions
  // mid-host and cut the WAN (floors are per-campaign averages, so the
  // pinned-seed CI mode is held to the same standard as the default
  // sweep).
  EXPECT_GT(coverage.submitted, 5 * campaigns);
  EXPECT_GT(coverage.completed, 3 * campaigns);
  EXPECT_GT(coverage.interruptions, campaigns);
  EXPECT_GT(coverage.transfers_delivered,
            static_cast<std::uint64_t>(campaigns) / 4);
  EXPECT_GT(coverage.region_outages, campaigns / 4);
  EXPECT_GT(coverage.wan_partitions, campaigns / 4);
  EXPECT_GE(coverage.longest_chain, 2u);
}

}  // namespace
}  // namespace gpunion
