// Crash-recovery chaos harness: the named crash-point taxonomy fired
// against a live campus (and, for kCrashMidForward, a live federation),
// at several seeds, with deterministic replay.
//
// Three layers of assertion:
//  * survivability — every crash point, fired repeatedly mid-run, ends
//    with every submitted job completed exactly once and the jobs
//    conservation identity closed;
//  * taxonomy honesty — kCrashPreAck (group-commit, then die) recovers
//    with ZERO WAL replay while kCrashPostAckPreFlush / mid-group-commit
//    (dirty ledger / torn commit) genuinely replay acked work, so the
//    named points are demonstrably different states, not one crash with
//    four labels;
//  * determinism — the same seed re-runs to bit-identical per-job
//    completion times with crashes enabled (fault triggers are ordinary
//    events in the global order).
//
// GPUNION_INVARIANT_SEED pins the seed family, same contract as the
// coordinator invariants harness (CI runs fixed seeds plus $RANDOM).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "gpunion/federated_platform.h"
#include "gpunion/platform.h"
#include "sim/fault_injector.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

CampusConfig crash_campus(int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back({hw::workstation_3090("cr-" + std::to_string(i)),
                            "group-" + std::to_string(i % 2)});
  }
  config.storage.push_back({"nas-cr", 64ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  config.db.shard_count = 4;
  config.db.write_behind = true;
  // Lazy flushing on purpose: only the 30 s interval commit runs, never a
  // threshold flush, so a deferred record stays in the WAL until its
  // shard's next synchronous write or the interval commit.
  config.db.flush_threshold = 1u << 20;
  config.db.flush_interval = 30.0;
  return config;
}

struct CampaignResult {
  int submitted = 0;
  int completed = 0;
  int recoveries = 0;
  std::uint64_t wal_replayed = 0;
  std::map<std::string, double> completed_at;  // per-job, the replay oracle
};

/// One seeded campaign against one named crash point: submit a backlog,
/// fire the crash three times while it drains, each time with deferred
/// records in the WAL, and assert nothing was lost or doubled.
CampaignResult run_campaign(std::uint64_t seed,
                            const std::string& crash_point) {
  SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed) + " point=" +
               crash_point);
  sim::Environment env(seed);
  Platform platform(env, crash_campus(4));
  platform.start();
  platform.register_crash_points(/*downtime=*/1.5);
  env.run_until(5.0);

  CampaignResult result;
  util::Rng rng(seed * 977 + 13);
  auto submit_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto job = workload::make_training_job(
          "job-" + std::to_string(result.submitted), workload::cnn_small(),
          rng.uniform(0.01, 0.03),
          "group-" + std::to_string(result.submitted % 2), env.now());
      job.checkpoint_interval = 30.0;
      EXPECT_TRUE(platform.coordinator().submit(std::move(job)).is_ok());
      ++result.submitted;
    }
  };
  submit_batch(4);
  // Three crashes while the backlog drains, each after a fresh submission
  // wave.  The wave's own records do not stay in the WAL: submit's deferred
  // enqueue is followed by its synchronous job-state write on the same
  // shard, which applies the enqueue to that shard's image at once.  What
  // stays deferred is an allocation a completion closes or a dispatch
  // opens, on a node whose shard has not written since.  So each trigger
  // fires at the first event after which the WAL holds such a record, and
  // the dirty points always find acked work that only the WAL holds.  Each
  // wave comes 20 s after the previous trigger, well past the 1.5 s
  // downtime, so each trigger finds a live control plane to kill.
  const db::LedgerWal& wal = platform.database().wal();
  util::SimTime wave_at = 20.0;
  for (int crash = 0; crash < 3; ++crash) {
    env.run_until(wave_at);
    submit_batch(2);
    env.run_until(wave_at + 0.1);
    while (wal.depth() == 0 && env.now() < 900.0 && env.step()) {
    }
    EXPECT_GT(wal.depth(), 0u) << "no deferred record by t=" << env.now();
    EXPECT_TRUE(platform.fault_injector().inject_now(crash_point));
    wave_at = env.now() + 20.0;
  }
  env.run_until(900.0);

  const auto& stats = platform.coordinator().stats();
  result.completed = stats.jobs_completed;
  result.recoveries = platform.coordinator().recovery_stats().recoveries;
  result.wal_replayed = platform.database().wal().stats().replayed;
  for (const auto& [job_id, record] : platform.coordinator().archive()) {
    result.completed_at[job_id] = record.completed_at;
  }
  // Exactly once, everything: completions match submissions, conservation
  // closes, every trigger actually crashed and recovered the plane.
  EXPECT_EQ(result.completed, result.submitted);
  EXPECT_EQ(stats.jobs_submitted,
            static_cast<int>(platform.coordinator().jobs().size() +
                             platform.coordinator().archive().size()) +
                stats.jobs_withdrawn);
  EXPECT_EQ(platform.fault_injector().fired(crash_point), 3u);
  EXPECT_EQ(result.recoveries, 3);
  EXPECT_EQ(platform.fault_injector().misfires(), 0u);
  return result;
}

std::vector<std::uint64_t> harness_seeds() {
  if (const char* pinned = std::getenv("GPUNION_INVARIANT_SEED")) {
    const std::uint64_t base = std::strtoull(pinned, nullptr, 10);
    return {base, base + 1, base + 2};
  }
  return {1, 2, 3};
}

TEST(CrashRecoveryTest, EveryCampusCrashPointIsSurvivableAtEverySeed) {
  // The campus taxonomy (mid_forward needs a federation; covered below).
  // Sorted, matching FaultInjector::names() deterministic iteration.
  const std::vector<std::string> points = {
      std::string(sim::kCrashMidGroupCommit),
      std::string(sim::kCrashPostAckPreFlush),
      std::string(sim::kCrashPreAck),
  };
  // register_crash_points must install exactly these names.
  {
    sim::Environment env(1);
    Platform platform(env, crash_campus(2));
    platform.start();
    platform.register_crash_points(1.0);
    EXPECT_EQ(platform.fault_injector().names(), points);
  }
  for (const std::uint64_t seed : harness_seeds()) {
    std::uint64_t replayed_dirty = 0;
    for (const auto& point : points) {
      const CampaignResult result = run_campaign(seed, point);
      if (::testing::Test::HasFatalFailure()) return;
      if (point == sim::kCrashPreAck) {
        // Group-commit-then-die: the WAL was empty at every crash, so
        // recovery had nothing to replay.  If this fails, the pre-ack
        // point is not actually flushing first.
        EXPECT_EQ(result.wal_replayed, 0u) << point;
      } else {
        replayed_dirty += result.wal_replayed;
      }
    }
    // The dirty-ledger points must have genuinely replayed acked work —
    // otherwise every "crash" happened on a conveniently clean ledger and
    // the recovery path was never exercised.
    EXPECT_GT(replayed_dirty, 0u) << "seed " << seed;
  }
}

TEST(CrashRecoveryTest, SameSeedReplaysBitIdenticallyWithCrashes) {
  const std::uint64_t seed = harness_seeds().front();
  const CampaignResult first =
      run_campaign(seed, std::string(sim::kCrashPostAckPreFlush));
  const CampaignResult second =
      run_campaign(seed, std::string(sim::kCrashPostAckPreFlush));
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.wal_replayed, second.wal_replayed);
  // Bit-exact: every job finished at the same simulated instant.
  EXPECT_EQ(first.completed_at, second.completed_at);
}

TEST(CrashRecoveryTest, FederatedMidForwardCrashLandsEveryJobOnce) {
  for (const std::uint64_t seed : harness_seeds()) {
    SCOPED_TRACE("GPUNION_INVARIANT_SEED=" + std::to_string(seed));
    sim::Environment env(seed);
    FederationConfig config;
    CampusConfig alpha = crash_campus(1);
    CampusConfig beta = crash_campus(3);
    federation::RegionPolicy policy;
    policy.digest_interval = 5.0;
    policy.forward_after = 10.0;
    policy.forward_timeout = 10.0;
    policy.forward_retry_backoff = 30.0;
    config.regions.push_back(RegionConfig{"alpha", alpha, policy});
    config.regions.push_back(RegionConfig{"beta", beta, policy});
    FederatedPlatform fed(env, config);
    fed.start();
    fed.register_region_crash_points("alpha", /*downtime=*/2.0);
    env.run_until(5.0);

    const int submitted = 4;
    for (int i = 0; i < submitted; ++i) {
      ASSERT_TRUE(
          fed.region("alpha")
              .coordinator()
              .submit(workload::make_training_job(
                  "job-" + std::to_string(i), workload::cnn_small(),
                  300.0 / 3600.0, "group-0", env.now()))
              .is_ok());
    }
    // Fire the mid-forward point at the moment it is named for: a
    // withdrawn job's offer or transfer on the WAN.
    bool in_flight = false;
    while (env.now() < 120.0) {
      if (fed.gateway("alpha").withdrawn_in_flight() >= 1) {
        in_flight = true;
        break;
      }
      env.run_until(env.now() + 0.005);
    }
    ASSERT_TRUE(in_flight) << "no forward ever went in flight";
    ASSERT_TRUE(fed.region("alpha").fault_injector().inject_now(
        std::string(sim::kCrashMidForward)));
    env.run_until(env.now() + 1500.0);

    EXPECT_EQ(fed.region("alpha").coordinator().stats().jobs_completed +
                  fed.region("beta").coordinator().stats().jobs_completed,
              submitted);
    EXPECT_EQ(fed.gateway("alpha").recovery_stats().recoveries, 1);
    EXPECT_EQ(fed.gateway("alpha").withdrawn_in_flight(), 0);
    EXPECT_EQ(fed.region("alpha").fault_injector().fired(
                  std::string(sim::kCrashMidForward)),
              1u);
  }
}

}  // namespace
}  // namespace gpunion
