// Randomized property/invariant harness for the control plane.
//
// Drives a seeded random schedule of submit / withdraw / cancel /
// heartbeat-expiry / displacement / return / control-plane-crash events
// against a small campus
// (the real Platform: coordinator, agents, network, sharded write-behind
// database) and after every ledger flush asserts the cross-cutting
// invariants no single-path unit test covers:
//
//   * jobs conservation — live + archived + withdrawn == submitted;
//   * allocation/GPU-slot accounting — Directory::capacity_summary()'s
//     running counters equal a full rescan of the directory, and every
//     node's scheduling view stays inside [0, capacity];
//   * DB/coordinator agreement — open allocations in the (possibly
//     unflushed) ledgered DB correspond 1:1 to live running records, the
//     pending queue depth matches the live pending census, and the
//     per-node job index matches a rebuild from the live records.
//
// The seed of a failing iteration is printed via SCOPED_TRACE for exact
// reproduction (also settable with GPUNION_INVARIANT_SEED; CI runs three
// fixed seeds plus a randomized one on top of the default sweep).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "gpunion/platform.h"
#include "tests/sched/capacity_rescan.h"
#include "util/rng.h"
#include "workload/profiles.h"
#include "workload/provider_behavior.h"

namespace gpunion {
namespace {

CampusConfig invariant_campus(int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back({hw::workstation_3090("inv-" + std::to_string(i)),
                            "group-" + std::to_string(i % 2)});
  }
  config.storage.push_back({"nas-inv", 64ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  // Small flush threshold so both flush triggers fire during a run.
  config.db.flush_threshold = 16;
  config.db.flush_interval = 5.0;
  return config;
}

/// All cross-cutting invariants; called after every flush.
void check_invariants(Platform& platform) {
  auto& coordinator = platform.coordinator();
  const auto& stats = coordinator.stats();

  // --- Jobs conservation ----------------------------------------------------
  const int live = static_cast<int>(coordinator.jobs().size());
  const int archived = static_cast<int>(coordinator.archive().size());
  EXPECT_EQ(stats.jobs_submitted, live + archived + stats.jobs_withdrawn)
      << "conservation: live " << live << " + archived " << archived
      << " + withdrawn " << stats.jobs_withdrawn
      << " != submitted " << stats.jobs_submitted;
  for (const auto& [job_id, record] : coordinator.archive()) {
    EXPECT_TRUE(sched::job_phase_terminal(record.phase))
        << job_id << " archived while " << sched::job_phase_name(record.phase);
  }

  // --- Capacity accounting vs the indexed summary -----------------------------
  sched::expect_capacity_matches_rescan(coordinator.directory(), "campus");

  // --- DB state agrees with coordinator state ---------------------------------
  // Open allocations in the DB <-> live running records, 1:1.
  std::map<std::uint64_t, const db::AllocationRecord*> open_allocations;
  for (const auto& allocation : platform.database().allocation_ledger()) {
    if (allocation.outcome == db::AllocationOutcome::kRunning) {
      open_allocations[allocation.allocation_id] = &allocation;
    }
  }
  int running_with_allocation = 0;
  for (const auto& [job_id, record] : coordinator.jobs()) {
    if (record.open_allocation == 0) continue;
    ++running_with_allocation;
    EXPECT_EQ(record.phase, sched::JobPhase::kRunning)
        << job_id << " holds an allocation while "
        << sched::job_phase_name(record.phase);
    auto it = open_allocations.find(record.open_allocation);
    ASSERT_NE(it, open_allocations.end())
        << job_id << " allocation " << record.open_allocation
        << " missing or closed in the DB";
    EXPECT_EQ(it->second->job_id, job_id);
    EXPECT_EQ(it->second->machine_id, record.node)
        << job_id << " DB says " << it->second->machine_id
        << ", coordinator says " << record.node;
  }
  EXPECT_EQ(open_allocations.size(),
            static_cast<std::size_t>(running_with_allocation))
      << "DB holds open allocations for jobs the coordinator retired";

  // Pending queue depth == live pending census (probed between events).
  int pending = 0;
  for (const auto& [job_id, record] : coordinator.jobs()) {
    if (record.phase == sched::JobPhase::kPending) ++pending;
  }
  EXPECT_EQ(platform.database().queue_depth(),
            static_cast<std::size_t>(pending));

  // Per-node index == rebuild from live records.
  std::map<std::string, std::set<std::string>> expected_index;
  for (const auto& [job_id, record] : coordinator.jobs()) {
    if (!record.node.empty()) expected_index[record.node].insert(job_id);
  }
  std::size_t indexed = 0;
  for (const auto& [machine_id, expected] : expected_index) {
    EXPECT_EQ(coordinator.jobs_on(machine_id), expected) << machine_id;
    indexed += expected.size();
  }
  EXPECT_EQ(coordinator.operational_stats().nodes_with_assignments,
            expected_index.size());
  (void)indexed;
}

/// Aggregate coverage across the whole sweep: the campaigns must actually
/// exercise the paths the invariants guard, or a green run means nothing.
struct SweepCoverage {
  int submitted = 0;
  int completed = 0;
  int interruptions = 0;
  int withdrawn = 0;
  std::uint64_t ledger_entries = 0;
  std::uint64_t threshold_flushes = 0;
  std::uint64_t interval_flushes = 0;
  std::uint64_t crash_recoveries = 0;
  std::uint64_t crash_jobs_rebuilt = 0;
};

/// One seeded campaign: random event bursts, flush + invariants after each.
void run_one_seed(std::uint64_t seed, int rounds,
                  SweepCoverage* coverage = nullptr) {
  SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  sim::Environment env(seed);
  const int nodes = 6;
  const CampusConfig config = invariant_campus(nodes);
  Platform platform(env, config);
  platform.start();
  env.run_until(5.0);

  auto& coordinator = platform.coordinator();
  int next_job = 0;
  std::vector<std::string> submitted_ids;
  // Submits a training job (sometimes wide) or a session.
  auto submit_random = [&] {
    const std::string id = "job-" + std::to_string(next_job++);
    const std::string group = "group-" + std::to_string(rng.uniform_int(0, 1));
    if (rng.bernoulli(0.25)) {
      (void)coordinator.submit(workload::make_interactive_session(
          id, rng.uniform(0.005, 0.02), group, env.now()));
    } else {
      auto job = workload::make_training_job(
          id, workload::cnn_small(), rng.uniform(0.005, 0.05), group,
          env.now());
      job.checkpoint_interval = 30.0;
      (void)coordinator.submit(std::move(job));
    }
    submitted_ids.push_back(id);
  };

  // The campaign opens with a submission wave as large as the flush
  // threshold: its ledgered enqueues alone cross the threshold before the
  // first explicit flush, so the threshold trigger fires every campaign.
  for (std::size_t i = 0; i < config.db.flush_threshold; ++i) {
    submit_random();
  }

  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const int burst = static_cast<int>(rng.uniform_int(1, 4));
    for (int b = 0; b < burst; ++b) {
      const std::int64_t action = rng.uniform_int(0, 10);
      // A crashed coordinator is unreachable: clients cannot submit,
      // withdraw or cancel until it recovers (interruptions still happen —
      // providers do not wait for the control plane).
      if (platform.control_plane_crashed() && action <= 5) continue;
      switch (action) {
        case 0:
        case 1:
        case 2:
        case 3:  // submit training (sometimes wide) or a session
          submit_random();
          break;
        case 4: {  // withdraw a pending job (the federation hand-off path)
          // Target a job that is actually pending so the path is exercised
          // every time one exists (withdraw on a non-pending id is also
          // covered — it must refuse, below).
          std::string pending_id;
          for (const auto& [job_id, record] : coordinator.jobs()) {
            if (record.phase == sched::JobPhase::kPending) {
              pending_id = job_id;
              break;
            }
          }
          if (pending_id.empty()) {
            if (!submitted_ids.empty()) {
              const std::string& id =
                  submitted_ids[static_cast<std::size_t>(rng.uniform_int(
                      0,
                      static_cast<std::int64_t>(submitted_ids.size() - 1)))];
              const sched::JobRecord* record = coordinator.job(id);
              const bool pending =
                  record != nullptr &&
                  record->phase == sched::JobPhase::kPending;
              EXPECT_EQ(coordinator.withdraw(id).ok(), pending) << id;
            }
            break;
          }
          auto withdrawn = coordinator.withdraw(pending_id);
          ASSERT_TRUE(withdrawn.ok()) << pending_id;
          if (rng.bernoulli(0.5)) {
            // Half the withdrawn jobs come back (a failed forward): a
            // resubmission under the same id is a fresh submit.
            (void)coordinator.submit(std::move(withdrawn->spec),
                                     withdrawn->checkpointed_progress);
          }
          break;
        }
        case 5: {  // cancel a random known job, any phase
          if (submitted_ids.empty()) break;
          (void)coordinator.cancel(submitted_ids[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(
                                     submitted_ids.size() - 1)))]);
          break;
        }
        case 6:    // displacement with notice (scheduled departure)
        case 7:    // heartbeat-expiry displacement (emergency: no notice)
        case 8: {  // temporary departure (migrate-back path)
          workload::Interruption event;
          event.at = env.now();
          event.machine_id = Platform::machine_id_for(
              "inv-" + std::to_string(rng.uniform_int(0, nodes - 1)));
          event.kind = rng.bernoulli(0.4)
                           ? agent::DepartureKind::kScheduled
                           : (rng.bernoulli(0.5)
                                  ? agent::DepartureKind::kEmergency
                                  : agent::DepartureKind::kTemporary);
          event.downtime = rng.uniform(10.0, 60.0);
          platform.inject_interruption(event);
          break;
        }
        case 9: {  // control-plane crash + WAL recovery mid-campaign
          // Downtime stays strictly below the minimum round advance (3.0 s)
          // so the coordinator is always recovered before the post-round
          // flush + invariant check runs.
          platform.crash_control_plane(rng.uniform(0.5, 2.5));
          break;
        }
        default: {  // owner kill-switch (reclaim) on a random node
          workload::Interruption event;
          event.at = env.now();
          event.machine_id = Platform::machine_id_for(
              "inv-" + std::to_string(rng.uniform_int(0, nodes - 1)));
          event.kind = agent::DepartureKind::kReclaim;
          platform.inject_interruption(event);
          break;
        }
      }
    }
    env.run_until(env.now() + rng.uniform(3.0, 25.0));
    platform.database().flush_ledger();
    check_invariants(platform);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Drain: let everything in flight settle, then re-assert.
  env.run_until(env.now() + 400.0);
  platform.database().flush_ledger();
  check_invariants(platform);
  if (coverage != nullptr) {
    const auto& stats = coordinator.stats();
    coverage->submitted += stats.jobs_submitted;
    coverage->completed += stats.jobs_completed;
    coverage->interruptions += stats.interruptions;
    coverage->withdrawn += stats.jobs_withdrawn;
    const auto& ledger = platform.database().ledger().stats();
    coverage->ledger_entries += ledger.absorbed;
    coverage->threshold_flushes += ledger.threshold_flushes;
    coverage->interval_flushes += ledger.interval_flushes;
    const auto& recovery = coordinator.recovery_stats();
    coverage->crash_recoveries +=
        static_cast<std::uint64_t>(recovery.recoveries);
    coverage->crash_jobs_rebuilt +=
        static_cast<std::uint64_t>(recovery.jobs_rebuilt);
  }
}

TEST(CoordinatorInvariantsTest, RandomizedCampaign) {
  // GPUNION_INVARIANT_SEED pins the campaign to one seed family (CI runs
  // three fixed seeds plus a $RANDOM one); the default sweep covers 100.
  const char* pinned = std::getenv("GPUNION_INVARIANT_SEED");
  SweepCoverage coverage;
  int campaigns = 0;
  if (pinned != nullptr) {
    const std::uint64_t base = std::strtoull(pinned, nullptr, 10);
    for (std::uint64_t seed = base; seed < base + 25; ++seed) {
      run_one_seed(seed, /*rounds=*/10, &coverage);
      ++campaigns;
      if (::testing::Test::HasFatalFailure()) return;
    }
  } else {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      run_one_seed(seed, /*rounds=*/10, &coverage);
      ++campaigns;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The sweep is only meaningful if it hit the guarded paths (floors are
  // per-campaign averages, so the pinned-seed CI mode is held to the same
  // standard as the 100-seed default sweep).
  EXPECT_GT(coverage.submitted, 3 * campaigns);
  EXPECT_GT(coverage.completed, campaigns / 2);
  EXPECT_GT(coverage.interruptions, campaigns / 2);
  EXPECT_GT(coverage.withdrawn, campaigns / 8);
  EXPECT_GT(coverage.ledger_entries, static_cast<std::uint64_t>(campaigns) * 10);
  EXPECT_GT(coverage.threshold_flushes, 0u);
  EXPECT_GT(coverage.interval_flushes, 0u);
  // The crash action must actually fire and rebuild non-trivial state, or
  // "invariants hold across recovery" was never tested.
  EXPECT_GT(coverage.crash_recoveries, static_cast<std::uint64_t>(campaigns) / 2);
  EXPECT_GT(coverage.crash_jobs_rebuilt, 0u);
}

}  // namespace
}  // namespace gpunion
