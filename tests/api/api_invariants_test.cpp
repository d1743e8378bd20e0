// Randomized multi-tenant harness for the request plane (PR 4/PR 5 style).
//
// A heavy-tailed tenant population churns submit / batch-submit / status /
// cancel / provider-churn / control-plane-crash against an API-fronted
// campus, and after every round (drained to quiescence) the harness asserts
// the cross-cutting request-plane invariants:
//
//   * per-tenant conservation — accepted == dispatched + queued +
//     quota-dropped + cancelled + core-rejected, exactly, per tenant and
//     in aggregate;
//   * quota enforcement — no tenant ever exceeds max_in_flight, its queue
//     bound, or its GPU-seconds budget;
//   * bounded core working set — total in-flight demand stays within
//     capacity x kCoreLoadFactor;
//   * blocked-for-cause — a tenant still backlogged after a quiescent
//     drain is quota-blocked, budget-starved or capacity-blocked; queues
//     never hold for no reason.
//
// DRF share balance is pinned separately (DrfSharesBalanceUnderFlood): it
// floods the plane from many tenants with long jobs (no releases during
// the window) where progressive filling's within-one-job bound is exact.
// Backpressure monotonicity gets its own deterministic load ladder.
//
// Seeds reproduce via GPUNION_INVARIANT_SEED exactly like the coordinator
// and federation harnesses; CI runs 3 fixed seeds + $RANDOM.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/api_server.h"
#include "gpunion/platform.h"
#include "util/rng.h"
#include "workload/profiles.h"
#include "workload/provider_behavior.h"

namespace gpunion {
namespace {

constexpr int kNodes = 6;
constexpr int kTenants = 12;

std::string tenant_name(int index) {
  return "t" + std::string(index < 10 ? "0" : "") + std::to_string(index);
}

CampusConfig api_campus() {
  CampusConfig config;
  for (int i = 0; i < kNodes; ++i) {
    config.nodes.push_back({hw::workstation_3090("api-" + std::to_string(i)),
                            "group-" + std::to_string(i % 2)});
  }
  config.storage.push_back({"nas-api", 64ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  config.db.shard_count = 4;
  config.db.write_behind = true;
  config.db.flush_threshold = 16;
  config.db.flush_interval = 5.0;

  config.api.enabled = true;
  // Tight enough that every reject path fires during a campaign.
  config.api.admission_rate = 40.0;
  config.api.admission_burst = 12.0;
  config.api.drain_interval = 0.5;
  config.api.drain_batch = 8;
  config.api.default_quota.max_in_flight = 4;
  config.api.default_quota.max_queued = 6;
  // Tenant personalities: a weighted heavy hitter, a budget-metered lab, a
  // one-at-a-time guest, a tiny-queue walk-in.
  config.api.tenant_quotas[tenant_name(0)].weight = 2.0;
  config.api.tenant_quotas[tenant_name(0)].max_in_flight = 6;
  config.api.tenant_quotas[tenant_name(0)].max_queued = 6;
  config.api.tenant_quotas[tenant_name(1)].gpu_seconds_budget = 150.0;
  config.api.tenant_quotas[tenant_name(1)].max_queued = 6;
  config.api.tenant_quotas[tenant_name(2)].max_in_flight = 1;
  config.api.tenant_quotas[tenant_name(2)].max_queued = 6;
  config.api.tenant_quotas[tenant_name(3)].max_queued = 2;
  return config;
}

/// Heavy-tailed tenant draw: cubing the uniform skews mass onto the head
/// tenants (a discrete Zipf-ish popularity curve, deterministic per seed).
int draw_tenant(util::Rng& rng) {
  const double u = rng.uniform(0.0, 1.0);
  return std::min(kTenants - 1, static_cast<int>(u * u * u * kTenants));
}

/// Cross-cutting request-plane invariants; assertable at any quiescent
/// point (and most of them at ANY point — the transitions are atomic).
void check_api_invariants(Platform& platform) {
  api::ApiServer& api = platform.api();

  api::TenantCounters rollup;
  for (const std::string& tenant : api.tenants()) {
    const api::TenantCounters& c = api.tenant_counters(tenant);
    const api::TenantQuota& quota = api.quota_of(tenant);
    const std::size_t queued = api.queued(tenant);
    const int in_flight = api.in_flight(tenant);

    // Conservation: everything accepted is exactly one of dispatched,
    // still queued, dropped at the quota gate, cancelled while queued, or
    // refused by the core.
    EXPECT_EQ(c.accepted, c.dispatched + queued + c.quota_dropped +
                              c.cancelled_queued + c.dispatch_rejected)
        << tenant << ": accepted " << c.accepted << " != dispatched "
        << c.dispatched << " + queued " << queued << " + quota_dropped "
        << c.quota_dropped << " + cancelled " << c.cancelled_queued
        << " + core_rejected " << c.dispatch_rejected;
    // Every submit got exactly one verdict.
    EXPECT_EQ(c.submitted, c.accepted + c.rejected_overloaded +
                               c.rejected_quota + c.rejected_invalid)
        << tenant;

    // Quotas hold, always.
    EXPECT_LE(in_flight, quota.max_in_flight) << tenant;
    EXPECT_LE(queued, quota.max_queued) << tenant;
    EXPECT_LE(c.gpu_seconds_charged, quota.gpu_seconds_budget + 1e-6)
        << tenant;

    rollup.submitted += c.submitted;
    rollup.accepted += c.accepted;
    rollup.dispatched += c.dispatched;
    rollup.quota_dropped += c.quota_dropped;
    rollup.cancelled_queued += c.cancelled_queued;
    rollup.dispatch_rejected += c.dispatch_rejected;
  }
  const api::TenantCounters& totals = api.stats().totals;
  EXPECT_EQ(totals.submitted, rollup.submitted);
  EXPECT_EQ(totals.accepted, rollup.accepted);
  EXPECT_EQ(totals.dispatched, rollup.dispatched);
  EXPECT_EQ(totals.accepted,
            totals.dispatched + api.total_queued() + totals.quota_dropped +
                totals.cancelled_queued + totals.dispatch_rejected);

  // Bounded core working set.
  const api::ResourceVector usage = api.drf_queue().total_usage();
  const api::ResourceVector& capacity = api.drf_queue().capacity();
  EXPECT_LE(usage.gpus, capacity.gpus * api::kCoreLoadFactor + 1e-9);
  EXPECT_LE(usage.memory_gb,
            capacity.memory_gb * api::kCoreLoadFactor + 1e-9);
}

/// After a quiescent drain every backlogged tenant must be blocked for a
/// reason: queues never hold jobs the core could take.
void check_blocked_for_cause(Platform& platform) {
  if (platform.control_plane_crashed()) return;  // drains are suspended
  api::ApiServer& api = platform.api();
  const double factor = api::kCoreLoadFactor;
  const api::DrfQueue& queue = api.drf_queue();
  const api::ResourceVector usage = queue.total_usage();
  for (const std::string& tenant : queue.backlogged()) {
    const api::TenantQuota& quota = api.quota_of(tenant);
    const bool quota_blocked = api.in_flight(tenant) >= quota.max_in_flight;
    // Exactly the drain gate: the head item's demand no longer fits the
    // bounded working set.
    const bool capacity_blocked = !usage.fits(queue.head_demand(tenant),
                                              queue.capacity(), factor);
    EXPECT_TRUE(quota_blocked || capacity_blocked)
        << tenant << " backlogged with " << api.queued(tenant)
        << " queued, in_flight " << api.in_flight(tenant) << "/"
        << quota.max_in_flight << ", usage " << usage.gpus << "/"
        << queue.capacity().gpus * factor << " GPUs";
  }
}

struct SweepCoverage {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t quota_dropped = 0;
  std::uint64_t cancelled_queued = 0;
  std::uint64_t batch_submits = 0;
  std::uint64_t batch_status = 0;
  std::uint64_t group_commits = 0;
  std::uint64_t interruptions = 0;
  std::uint64_t crash_recoveries = 0;
  std::uint64_t api_spans = 0;
};

void run_one_seed(std::uint64_t seed, int rounds,
                  SweepCoverage* coverage = nullptr) {
  SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  sim::Environment env(seed);
  Platform platform(env, api_campus());
  platform.start();
  env.run_until(5.0);

  api::ApiServer& api = platform.api();
  int next_job = 0;
  std::vector<std::pair<std::string, std::string>> submitted;  // tenant, id

  auto make_job = [&](const std::string& id) {
    auto job = workload::make_training_job(
        id, workload::cnn_small(), rng.uniform(0.005, 0.05),
        "group-" + std::to_string(rng.uniform_int(0, 1)), env.now());
    job.checkpoint_interval = 30.0;
    return job;
  };

  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const int burst = static_cast<int>(rng.uniform_int(2, 8));
    for (int b = 0; b < burst; ++b) {
      const std::string tenant = tenant_name(draw_tenant(rng));
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // single submit (sometimes an interactive session)
          const std::string id = "api-job-" + std::to_string(next_job++);
          api::SubmitResult result;
          if (rng.bernoulli(0.2)) {
            result = api.submit(tenant,
                                workload::make_interactive_session(
                                    id, rng.uniform(0.005, 0.02),
                                    "group-0", env.now()));
          } else {
            result = api.submit(tenant, make_job(id));
          }
          if (result.accepted()) submitted.emplace_back(tenant, id);
          if (result.outcome == api::AdmitOutcome::kOverloaded) {
            EXPECT_GT(result.retry_after, 0.0)
                << "kOverloaded must carry a retry-after hint";
          }
          break;
        }
        case 4: {  // batched submit burst
          std::vector<workload::JobSpec> jobs;
          const int n = static_cast<int>(rng.uniform_int(2, 6));
          for (int j = 0; j < n; ++j) {
            jobs.push_back(
                make_job("api-job-" + std::to_string(next_job++)));
          }
          std::vector<std::string> ids;
          for (const auto& job : jobs) ids.push_back(job.id);
          auto results = api.submit_batch(tenant, std::move(jobs));
          for (std::size_t j = 0; j < results.size(); ++j) {
            if (results[j].accepted()) submitted.emplace_back(tenant, ids[j]);
          }
          break;
        }
        case 5: {  // duplicate-id submit must be refused cleanly
          if (submitted.empty()) break;
          const auto& victim = submitted[static_cast<std::size_t>(
              rng.uniform_int(0,
                              static_cast<std::int64_t>(submitted.size() - 1)))];
          auto result = api.submit(victim.first, make_job(victim.second));
          EXPECT_EQ(result.outcome, api::AdmitOutcome::kRejected)
              << victim.second;
          break;
        }
        case 6: {  // cancel (queued or dispatched), right tenant or wrong
          if (submitted.empty()) break;
          const auto& victim = submitted[static_cast<std::size_t>(
              rng.uniform_int(0,
                              static_cast<std::int64_t>(submitted.size() - 1)))];
          if (rng.bernoulli(0.2)) {
            // Cross-tenant cancel must never touch another tenant's job.
            EXPECT_FALSE(api.cancel("intruder", victim.second).is_ok());
          } else {
            (void)api.cancel(victim.first, victim.second);
          }
          break;
        }
        case 7: {  // status probes (single + batch)
          if (submitted.empty()) break;
          std::vector<std::string> ids;
          for (int probes = static_cast<int>(rng.uniform_int(1, 5));
               probes > 0; --probes) {
            ids.push_back(
                submitted[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(submitted.size() -
                                                           1)))]
                    .second);
          }
          const std::string owner = api.status(ids.front(), "nope").phase;
          EXPECT_EQ(owner, "unknown");  // wrong-tenant probe leaks nothing
          for (const auto& view :
               api.status_batch(submitted.back().first, ids)) {
            if (view.known) {
              EXPECT_FALSE(view.phase.empty());
            }
          }
          break;
        }
        case 8: {  // provider churn under the API's feet
          workload::Interruption event;
          event.at = env.now();
          event.machine_id = Platform::machine_id_for(
              "api-" + std::to_string(rng.uniform_int(0, kNodes - 1)));
          event.kind = rng.bernoulli(0.5) ? agent::DepartureKind::kScheduled
                                          : agent::DepartureKind::kEmergency;
          event.downtime = rng.uniform(10.0, 40.0);
          platform.inject_interruption(event);
          break;
        }
        default: {  // control-plane crash: the API tier keeps queueing
          if (!platform.control_plane_crashed()) {
            platform.crash_control_plane(rng.uniform(0.5, 2.5));
          }
          break;
        }
      }
    }
    env.run_until(env.now() + rng.uniform(3.0, 20.0));
    api.drain_to_quiescence();
    platform.database().flush_ledger();
    check_api_invariants(platform);
    check_blocked_for_cause(platform);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Let in-flight work settle, then re-assert everything one last time.
  env.run_until(env.now() + 400.0);
  api.drain_to_quiescence();
  platform.database().flush_ledger();
  check_api_invariants(platform);
  check_blocked_for_cause(platform);

  if (coverage != nullptr) {
    const api::ApiStats& stats = api.stats();
    coverage->submitted += stats.totals.submitted;
    coverage->accepted += stats.totals.accepted;
    coverage->dispatched += stats.totals.dispatched;
    coverage->completed += stats.totals.completed;
    coverage->rejected_overloaded += stats.totals.rejected_overloaded;
    coverage->rejected_quota += stats.totals.rejected_quota;
    coverage->quota_dropped += stats.totals.quota_dropped;
    coverage->cancelled_queued += stats.totals.cancelled_queued;
    coverage->batch_submits += stats.batch_submits;
    coverage->batch_status += stats.batch_status;
    coverage->group_commits += stats.group_commits;
    coverage->interruptions += platform.coordinator().stats().interruptions;
    coverage->crash_recoveries += static_cast<std::uint64_t>(
        platform.coordinator().recovery_stats().recoveries);
    for (const auto& span : platform.tracer().snapshot()) {
      if (span.stage == obs::stage::kApiAdmit ||
          span.stage == obs::stage::kApiQueue) {
        ++coverage->api_spans;
      }
    }
  }
}

TEST(ApiInvariantsTest, RandomizedMultiTenantCampaign) {
  const char* pinned = std::getenv("GPUNION_INVARIANT_SEED");
  SweepCoverage coverage;
  int campaigns = 0;
  if (pinned != nullptr) {
    const std::uint64_t base = std::strtoull(pinned, nullptr, 10);
    for (std::uint64_t seed = base; seed < base + 25; ++seed) {
      run_one_seed(seed, /*rounds=*/8, &coverage);
      ++campaigns;
      if (::testing::Test::HasFatalFailure()) return;
    }
  } else {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      run_one_seed(seed, /*rounds=*/8, &coverage);
      ++campaigns;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Coverage floors: a green sweep must have exercised every guarded path.
  const auto n = static_cast<std::uint64_t>(campaigns);
  EXPECT_GT(coverage.submitted, 10 * n);
  EXPECT_GT(coverage.accepted, 5 * n);
  EXPECT_GT(coverage.dispatched, 5 * n);
  EXPECT_GT(coverage.completed, n);
  EXPECT_GT(coverage.rejected_overloaded, n) << "backpressure never fired";
  EXPECT_GT(coverage.rejected_quota + coverage.quota_dropped, n / 4)
      << "GPU-seconds budget gate never fired";
  EXPECT_GT(coverage.cancelled_queued, n / 4);
  EXPECT_GT(coverage.batch_submits, n / 2);
  EXPECT_GT(coverage.batch_status, n / 2);
  EXPECT_GT(coverage.group_commits, n) << "drains never amortized a commit";
  EXPECT_GT(coverage.interruptions, n / 2);
  EXPECT_GT(coverage.crash_recoveries, n / 4)
      << "the API-over-crashed-core path never ran";
  EXPECT_GT(coverage.api_spans, 10 * n) << "tenant-edge trace roots missing";
}

// DRF dominant shares stay within one job of each other while every tenant
// is continuously backlogged and nothing releases — the window where the
// progressive-filling bound is exact.  Long jobs keep usage monotone.
TEST(ApiInvariantsTest, DrfSharesBalanceUnderFlood) {
  sim::Environment env(7);
  CampusConfig config = api_campus();
  config.api.admission_rate = 1e6;  // isolate DRF from the rate limiter
  config.api.admission_burst = 1e6;
  config.api.default_quota.max_in_flight = 64;
  config.api.default_quota.max_queued = 64;
  config.api.tenant_quotas.clear();
  config.api.tenant_quotas[tenant_name(0)].weight = 2.0;
  config.api.tenant_quotas[tenant_name(0)].max_in_flight = 64;
  config.api.tenant_quotas[tenant_name(0)].max_queued = 64;
  Platform platform(env, config);
  platform.start();
  env.run_until(5.0);

  api::ApiServer& api = platform.api();
  for (int t = 0; t < 6; ++t) {
    for (int j = 0; j < 24; ++j) {
      auto job = workload::make_training_job(
          "flood-" + std::to_string(t) + "-" + std::to_string(j),
          workload::cnn_small(), /*hours=*/6.0, "group-0", env.now());
      ASSERT_TRUE(api.submit(tenant_name(t), std::move(job)).accepted());
    }
  }
  api.drain_to_quiescence();

  // Demand >> capacity x factor, so every tenant is still backlogged and
  // the only blocker is capacity: progressive filling must have balanced
  // the weighted dominant shares to within one job's share.
  const api::DrfQueue& queue = api.drf_queue();
  ASSERT_EQ(queue.backlogged().size(), 6u);
  const double job_share = 1.0 / static_cast<double>(kNodes);
  double min_share = 1e18;
  double max_share = 0;
  for (int t = 0; t < 6; ++t) {
    const double share = api.dominant_share_of(tenant_name(t));
    min_share = std::min(min_share, share);
    max_share = std::max(max_share, share);
  }
  EXPECT_LE(max_share - min_share, job_share + 1e-9)
      << "DRF drifted: weighted dominant shares spread past one job";
  // The weighted tenant's RAW usage is ahead of everyone else's.
  const double weighted_usage = queue.usage_of(tenant_name(0)).gpus;
  for (int t = 1; t < 6; ++t) {
    EXPECT_GE(weighted_usage + 1e-9, queue.usage_of(tenant_name(t)).gpus);
  }
}

// Backpressure is monotone in offered load: the identical open-loop
// schedule at 1x / 2x / 4x intensity never rejects less at higher load,
// and queue depth stays bounded throughout.
TEST(ApiInvariantsTest, BackpressureMonotoneInLoad) {
  auto offered_run = [](int multiplier) {
    sim::Environment env(11);
    CampusConfig config = api_campus();
    Platform platform(env, config);
    platform.start();
    env.run_until(5.0);
    api::ApiServer& api = platform.api();
    util::Rng rng(99);
    int next = 0;
    for (int tick = 0; tick < 60; ++tick) {
      for (int i = 0; i < multiplier; ++i) {
        const std::string tenant = tenant_name(draw_tenant(rng));
        auto job = workload::make_training_job(
            "load-" + std::to_string(next++), workload::cnn_small(),
            rng.uniform(0.01, 0.05), "group-0", env.now());
        (void)api.submit(tenant, std::move(job));
      }
      env.run_until(env.now() + 0.25);
    }
    const api::ApiStats& stats = api.stats();
    // Bounded backlog: the whole point of rejecting with retry-after.
    EXPECT_LE(stats.max_tenant_queued,
              config.api.default_quota.max_queued);
    return stats.totals.rejected_overloaded;
  };
  const auto r1 = offered_run(1);
  const auto r2 = offered_run(2);
  const auto r4 = offered_run(4);
  EXPECT_LE(r1, r2) << "rejections fell when load doubled";
  EXPECT_LE(r2, r4) << "rejections fell when load doubled again";
  EXPECT_GT(r4, r1) << "4x overload never triggered extra backpressure";
}

}  // namespace
}  // namespace gpunion
