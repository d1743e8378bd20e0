// Federation crash/restart: gateway recovery from durable forward and
// hand-off rows, receiver-side dedup across restarts, anti-entropy
// directory rejoin, and retry-backoff jitter de-correlation.
//
// The contracts under test:
//  * a region whose control plane (coordinator + gateway, one campus
//    process group) crashes mid-forward neither loses nor duplicates any
//    job — in-flight transfers resume under their original handoff id
//    (the receiver's durable dedup row absorbs the resend), unanswered
//    offers are repatriated to the home coordinator;
//  * the restart rebuilds every directory entry, job record and in-flight
//    forward exactly as its durable row holds it, bar the fields it
//    resets on purpose;
//  * a receiving region's restart keeps its guests: remote jobs and the
//    hand-off dedup table are rebuilt from provenance and handoff rows;
//  * an origin's restart restores every journaled counter and keeps
//    hand-off ids unique (new ids continue above every id it used before);
//  * a rejoining region anti-entropy-pulls the directory from one live
//    peer and converges in about a WAN round trip;
//  * every retry/backoff delay is jittered per-gateway from forked RNG
//    streams, so two regions with identical policies retry at different
//    times instead of thundering-herd into a recovering peer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gpunion/federated_platform.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

CampusConfig small_campus(const std::string& prefix, int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
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

federation::RegionPolicy fast_policy() {
  federation::RegionPolicy policy;
  policy.digest_interval = 5.0;
  policy.forward_after = 10.0;
  policy.forward_timeout = 10.0;
  policy.forward_retry_backoff = 30.0;
  return policy;
}

RegionConfig make_region(const std::string& name, int nodes,
                         federation::RegionPolicy policy = fast_policy()) {
  return RegionConfig{name, small_campus(name, nodes), policy};
}

workload::JobSpec training(const std::string& id, const std::string& group,
                           double seconds, util::SimTime at) {
  auto job = workload::make_training_job(id, workload::cnn_small(),
                                         seconds / 3600.0, group, at);
  job.checkpoint_interval = 30.0;
  return job;
}

int completed_in(Platform& platform) {
  return platform.coordinator().stats().jobs_completed;
}

/// Advances the sim in `step` increments until `pred` holds or `deadline`.
template <typename Pred>
bool run_until_pred(sim::Environment& env, double deadline, double step,
                    Pred pred) {
  while (!pred()) {
    if (env.now() >= deadline) return false;
    env.run_until(env.now() + step);
  }
  return true;
}

TEST(FederationRecoveryTest, CrashMidForwardNeverLosesOrDuplicatesJobs) {
  sim::Environment env(17);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  const int submitted = 4;
  for (int i = 0; i < submitted; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("job-" + std::to_string(i),
                                     "group-alpha", 300.0, env.now()))
                    .is_ok());
  }

  // Catch a forward mid-flight: the job is withdrawn from alpha's
  // coordinator, the offer or transfer is on the WAN, and the only record
  // of it anywhere is the gateway's durable forward row.
  ASSERT_TRUE(run_until_pred(env, 120.0, 0.005, [&] {
    return fed.gateway("alpha").withdrawn_in_flight() >= 1;
  })) << "no forward ever went in flight";
  fed.crash_region_control_plane("alpha", 2.0);
  env.run_until(env.now() + 1500.0);

  const auto& gateway = fed.gateway("alpha");
  EXPECT_EQ(gateway.recovery_stats().recoveries, 1);
  EXPECT_GE(gateway.recovery_stats().forwards_resumed +
                gateway.recovery_stats().forwards_repatriated,
            1);
  // Exactly-once: every submitted job completed somewhere, none twice.
  EXPECT_EQ(completed_in(fed.region("alpha")) +
                completed_in(fed.region("beta")),
            submitted);
  // The forward accounting identity closes with nothing left in flight
  // (the coordinator's withdrawn counter is journal-restored, the
  // gateway's delivered/returned counters ride the same journal).
  EXPECT_EQ(gateway.withdrawn_in_flight(), 0);
  const auto& stats = gateway.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(
                fed.region("alpha").coordinator().stats().jobs_withdrawn),
            stats.transfers_delivered + stats.forwards_returned);
}

TEST(FederationRecoveryTest, RestartRebuildsEveryDurableRowAsItWas) {
  // A mixed-hardware origin (a 3090 workstation, a 2xA100 server and a
  // time-sliced 4xA6000 server) with archived, running, displaced and
  // queued jobs, crashed while a forward is in flight.  Each record is
  // declared once as its durable row, so the rebuild must restore every
  // directory entry's NodeProfile, every job's JobStateRecord and every
  // forward's ForwardStateRecord exactly, except for the fields it resets
  // on purpose:
  //  * directory entries: free capacity, `accepting`, the heartbeat clock
  //    and the verified-token cache (the live view, re-learned from the
  //    agents' next heartbeats);
  //  * jobs: `awaiting_dispatch_settle` (nothing is in flight after a
  //    restart); a dispatching job requeues, so its `phase` turns pending,
  //    its granted `node` becomes its `preferred_node`, and its trace
  //    advances past the recovery_redispatch span; `queued_since` and
  //    `dispatch_sent_at` (not durable);
  //  * forwards: a transfer awaiting its ack is resent, one more
  //    `transfer_attempts`; an offer awaiting its reply is repatriated to
  //    the local queue; the transient state machine fields.
  sim::Environment env(29);
  FederationConfig config;
  CampusConfig alpha = small_campus("alpha", 1);
  alpha.nodes.push_back({hw::server_2xa100("alpha-a100"), "group-alpha"});
  alpha.nodes.push_back(
      {hw::with_timeslicing(hw::server_4xa6000("alpha-a6000"), 3),
       "group-alpha"});
  config.regions.push_back(RegionConfig{"alpha", alpha, fast_policy()});
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);
  Platform& home = fed.region("alpha");
  sched::Coordinator& coordinator = home.coordinator();
  const federation::RegionGateway& gateway = fed.gateway("alpha");

  // Archived rows: two jobs complete, one is cancelled.  The owner of the
  // node a long job runs on reclaims it; the job runs on with its
  // displacement on record.
  for (const char* id : {"done-0", "done-1", "cancelled"}) {
    ASSERT_TRUE(
        coordinator.submit(training(id, "group-alpha", 60.0, env.now()))
            .is_ok());
  }
  ASSERT_TRUE(
      coordinator.submit(training("displaced", "group-alpha", 3600.0, env.now()))
          .is_ok());
  env.run_until(10.0);
  ASSERT_TRUE(coordinator.cancel("cancelled").is_ok());
  ASSERT_EQ(coordinator.job("displaced")->phase, sched::JobPhase::kRunning);
  home.agent(coordinator.job("displaced")->node)->kill_switch();
  env.run_until(150.0);
  // Running rows on every node, and a queue that only forwards can drain.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coordinator
                    .submit(training("long-" + std::to_string(i),
                                     "group-alpha", 3600.0, env.now()))
                    .is_ok());
  }
  // A forward's flight is a few WAN round trips: stop at the first event
  // that leaves one awaiting its transfer ack (the same burst leaves others
  // awaiting their offer's reply).
  auto awaiting = [&](db::ForwardStateRecord::State state) {
    int count = 0;
    for (const auto& row : home.database().forward_states()) {
      count += row.state == state ? 1 : 0;
    }
    return count;
  };
  while (awaiting(db::ForwardStateRecord::State::kAwaitingTransferAck) == 0 &&
         env.now() < 400.0 && env.step()) {
  }
  ASSERT_GE(awaiting(db::ForwardStateRecord::State::kAwaitingTransferAck), 1);
  EXPECT_GE(awaiting(db::ForwardStateRecord::State::kAwaitingReply), 1);

  std::map<std::string, sched::NodeInfo> nodes;
  for (const sched::NodeInfo* node : coordinator.directory().all()) {
    nodes.emplace(node->machine_id, *node);
  }
  std::map<std::string, db::JobStateRecord> jobs;
  for (const auto* table : {&coordinator.jobs(), &coordinator.archive()}) {
    for (const auto& [id, record] : *table) jobs.emplace(id, record);
  }
  const std::vector<db::ForwardStateRecord> forwards =
      home.database().forward_states();
  ASSERT_FALSE(forwards.empty());
  int archived = 0, running = 0, displaced = 0;
  for (const auto& [id, row] : jobs) {
    archived += sched::job_phase_terminal(row.phase) ? 1 : 0;
    running += row.phase == sched::JobPhase::kRunning ? 1 : 0;
    displaced += row.displaced_from.empty() ? 0 : 1;
  }
  EXPECT_EQ(archived, 3);
  EXPECT_GE(running, 4);
  EXPECT_GE(displaced, 1);

  fed.crash_region_control_plane("alpha", 2.0);
  // Stop at the recovery event itself: the next events (the scheduling
  // pass, heartbeats) move records on.
  while (coordinator.crashed() && env.step()) {
  }
  ASSERT_FALSE(coordinator.crashed());

  ASSERT_EQ(coordinator.directory().size(), nodes.size());
  for (const auto& [id, before] : nodes) {
    const sched::NodeInfo* after = coordinator.directory().find(id);
    ASSERT_NE(after, nullptr) << id;
    EXPECT_TRUE(static_cast<const hw::NodeProfile&>(*after) == before) << id;
    EXPECT_EQ(after->status, before.status) << id;
    EXPECT_EQ(after->token_hash, before.token_hash) << id;
    EXPECT_TRUE(after->verified_token.empty()) << id;
    EXPECT_EQ(after->last_heartbeat_seq, 0u) << id;
  }
  std::map<std::string, std::set<std::string>> jobs_on, displaced_from;
  for (const auto& [id, before] : jobs) {
    const sched::JobRecord* after = coordinator.job(id);
    if (after == nullptr) {
      // The recovery tick forwarded a queued job again.
      EXPECT_TRUE(gateway.forwarding(id)) << id;
      continue;
    }
    db::JobStateRecord expected = before;
    expected.awaiting_dispatch_settle = false;
    if (before.phase == sched::JobPhase::kDispatching) {
      expected.phase = sched::JobPhase::kPending;
      expected.preferred_node = before.node;
      expected.node.clear();
      expected.trace.parent_span = after->trace.parent_span;
    }
    EXPECT_TRUE(static_cast<const db::JobStateRecord&>(*after) == expected)
        << id << " (" << sched::job_phase_name(before.phase) << ")";
    if (!sched::job_phase_terminal(expected.phase)) {
      if (!expected.node.empty()) jobs_on[expected.node].insert(id);
      if (!expected.displaced_from.empty()) {
        displaced_from[expected.displaced_from].insert(id);
      }
    }
  }
  // The per-node indexes are bound to the rebuilt fields.
  for (const auto& [id, node] : nodes) {
    EXPECT_EQ(coordinator.jobs_on(id), jobs_on[id]) << id;
    EXPECT_EQ(coordinator.displaced_from(id), displaced_from[id]) << id;
  }
  std::map<std::string, db::ForwardStateRecord> rows_after;
  for (db::ForwardStateRecord& row : home.database().forward_states()) {
    rows_after.emplace(row.spec.id, std::move(row));
  }
  for (const db::ForwardStateRecord& before : forwards) {
    const std::string& id = before.spec.id;
    if (before.state == db::ForwardStateRecord::State::kAwaitingReply) {
      const sched::JobRecord* home_again = coordinator.job(id);
      ASSERT_NE(home_again, nullptr) << id;
      EXPECT_EQ(home_again->phase, sched::JobPhase::kPending) << id;
      EXPECT_TRUE(home_again->spec == before.spec) << id;
      EXPECT_FALSE(rows_after.contains(id)) << id;
      continue;
    }
    // Resumed: the rebuilt forward re-persisted its base when it resent.
    ASSERT_TRUE(gateway.forwarding(id)) << id;
    ASSERT_TRUE(rows_after.contains(id)) << id;
    db::ForwardStateRecord expected = before;
    ++expected.transfer_attempts;
    EXPECT_TRUE(rows_after.at(id) == expected) << id;
  }
}

TEST(FederationRecoveryTest, ReceiverRestartKeepsGuestsAndDedupTable) {
  sim::Environment env(19);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  const int submitted = 3;
  for (int i = 0; i < submitted; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("job-" + std::to_string(i),
                                     "group-alpha", 300.0, env.now()))
                    .is_ok());
  }

  // Crash the RECEIVER once it hosts at least one admitted guest.
  ASSERT_TRUE(run_until_pred(env, 200.0, 0.05, [&] {
    return fed.gateway("beta").stats().remote_admitted >= 1 &&
           fed.gateway("beta").remote_jobs_active() >= 1;
  })) << "beta never admitted a guest";
  fed.crash_region_control_plane("beta", 2.0);
  env.run_until(env.now() + 1500.0);

  // The guest job and its provenance chain were rebuilt from the durable
  // tables, and so was the hand-off dedup row protecting it against an
  // at-least-once transfer resend.
  const auto& recovery = fed.gateway("beta").recovery_stats();
  EXPECT_EQ(recovery.recoveries, 1);
  EXPECT_GE(recovery.remote_jobs_rebuilt, 1);
  EXPECT_GE(recovery.handoffs_rebuilt, 1);
  // Nothing lost, nothing doubled — and the origin was told about its
  // remote jobs' outcomes after the receiver came back.
  EXPECT_EQ(completed_in(fed.region("alpha")) +
                completed_in(fed.region("beta")),
            submitted);
  EXPECT_GE(fed.gateway("alpha").stats().remote_completions, 1u);
}

TEST(FederationRecoveryTest, OriginRestartRestoresStatsJournalAndHandoffIds) {
  sim::Environment env(21);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Overflow alpha's single GPU and let every forward settle at beta.
  auto overflow = [&](const std::string& prefix) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(fed.region("alpha")
                      .coordinator()
                      .submit(training(prefix + std::to_string(i),
                                       "group-alpha", 60.0, env.now()))
                      .is_ok());
    }
  };
  overflow("before-");
  env.run_until(402.5);  // between ticks, away from any gossip arrival
  federation::RegionGateway& alpha = fed.gateway("alpha");
  ASSERT_GE(alpha.stats().transfers_delivered, 2u);
  ASSERT_EQ(alpha.withdrawn_in_flight(), 0);
  auto& beta_db = fed.region("beta").database();
  std::uint64_t max_handoff_id = 0;
  for (const db::HandoffRecord& row : beta_db.handoffs()) {
    max_handoff_id = std::max(max_handoff_id, row.handoff_id);
  }
  ASSERT_GT(max_handoff_id, 0u);

  // A tick journals the counters, so the durable copy equals the live one.
  alpha.tick();
  const federation::GatewayStats before = alpha.stats();
  const double downtime = 2.0;
  fed.crash_region_control_plane("alpha", downtime);
  env.run_until(env.now() + downtime);  // the restart fires at this instant
  ASSERT_FALSE(alpha.crashed());

  // recover() restores the journal, then ticks once (one digest pushed to
  // the single peer) and sends one anti-entropy pull; nothing else has
  // reached the gateway yet.
  federation::GatewayStats expected = before;
  ++expected.digests_published;
  ++expected.gossips_sent;
  ++expected.anti_entropy_pulls;
  for (std::size_t i = 0; i < std::size(federation::kJournaledStats); ++i) {
    const auto counter = federation::kJournaledStats[i];
    EXPECT_EQ(alpha.stats().*counter, expected.*counter)
        << "journal slot " << i;
  }

  // The hand-off id high-water mark rode the same journal: forwards after
  // the restart never reuse an id the receiver has already recorded.
  overflow("after-");
  env.run_until(env.now() + 400.0);
  int after_rows = 0;
  for (const db::HandoffRecord& row : beta_db.handoffs()) {
    if (row.job_id.starts_with("after-")) {
      ++after_rows;
      EXPECT_GT(row.handoff_id, max_handoff_id) << row.job_id;
    }
  }
  EXPECT_GE(after_rows, 1);
}

TEST(FederationRecoveryTest, RejoinPullRestoresFullViewWithinOneSecond) {
  const int regions = 5;
  const double crash_at = 40.0;
  const double downtime = 1.0;
  sim::Environment env(23);
  FederationConfig config;
  for (int i = 0; i < regions; ++i) {
    config.regions.push_back(make_region("r" + std::to_string(i), 1));
  }
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(crash_at);
  EXPECT_EQ(fed.gateway("r0").directory().entries().size(),
            static_cast<std::size_t>(regions));
  fed.crash_region_control_plane("r0", downtime);
  const double recovered_at = env.now() + downtime;
  EXPECT_TRUE(run_until_pred(env, recovered_at + 60.0, 0.01, [&] {
    return fed.gateway("r0").directory().entries().size() ==
           static_cast<std::size_t>(regions);
  })) << "directory never reconverged";
  EXPECT_GE(fed.gateway("r0").stats().anti_entropy_pulls, 1u);
  EXPECT_GE(fed.stats().gossips_sent, 1u);
  // The pull converges in about one WAN round trip, long before peers'
  // digest ticks would happen to push to the rejoiner.
  const double rejoin_s = env.now() - recovered_at;
  EXPECT_LT(rejoin_s, 1.0) << "anti-entropy pull took " << rejoin_s << " s";
}

TEST(FederationRecoveryTest, RetryBackoffJitterDecorrelatesGateways) {
  sim::Environment env(29);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 1));
  FederatedPlatform fed(env, config);
  fed.start();

  // Identical policies, identical base delay — but each gateway draws from
  // its own forked stream, so the actual retry delays differ (this is what
  // keeps N regions from thundering-herd-retrying into a recovering peer
  // in lockstep).
  const double base = fast_policy().forward_retry_backoff;
  const double half_width = federation::kRetryJitter * base;
  std::vector<double> alpha_draws;
  std::vector<double> beta_draws;
  bool diverged = false;
  for (int i = 0; i < 16; ++i) {
    alpha_draws.push_back(fed.gateway("alpha").jittered(base));
    beta_draws.push_back(fed.gateway("beta").jittered(base));
    EXPECT_GE(alpha_draws.back(), base - half_width - 1e-9);
    EXPECT_LE(alpha_draws.back(), base + half_width + 1e-9);
    if (alpha_draws.back() != beta_draws.back()) diverged = true;
  }
  EXPECT_TRUE(diverged) << "alpha and beta drew identical jitter sequences";
  // The draws are not constant either (a broken jitter that always returns
  // base would also 'de-correlate' nothing).
  bool varies = false;
  for (std::size_t i = 1; i < alpha_draws.size(); ++i) {
    if (alpha_draws[i] != alpha_draws[0]) varies = true;
  }
  EXPECT_TRUE(varies);
}

}  // namespace
}  // namespace gpunion
