// End-to-end platform tests on the paper's 11-server campus.
#include "gpunion/platform.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpunion/client.h"
#include "monitor/exposition.h"
#include "sim/fault_injector.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

TEST(PlatformTest, StartBringsFleetOnline) {
  sim::Environment env(1);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(10.0);
  int active = 0;
  for (const auto* node : platform.coordinator().directory().all()) {
    if (node->status == db::NodeStatus::kActive) ++active;
  }
  EXPECT_EQ(active, 11);
  EXPECT_EQ(platform.total_gpus(), 8 + 8 + 2 + 4);
  EXPECT_EQ(platform.coordinator().directory().total_gpus(), 22);
}

TEST(PlatformTest, ClientSubmitRunsJob) {
  sim::Environment env(2);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "theory");
  auto job_id = client.submit_training(workload::cnn_small(), 0.5);
  ASSERT_TRUE(job_id.ok()) << job_id.status();
  env.run_until(env.now() + 60.0);
  const sched::JobRecord* record = client.status(*job_id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, sched::JobPhase::kRunning);
  env.run_until(env.now() + util::hours(1));
  EXPECT_EQ(record->phase, sched::JobPhase::kCompleted);
}

TEST(PlatformTest, SessionServedOnIdleFleet) {
  sim::Environment env(3);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "theory");
  auto session = client.request_session(1.0);
  ASSERT_TRUE(session.ok());
  env.run_until(env.now() + util::hours(1.2));
  EXPECT_EQ(client.status(*session)->phase, sched::JobPhase::kCompleted);
  EXPECT_EQ(platform.coordinator().stats().sessions_served, 1);
}

TEST(PlatformTest, UtilizationFromLedger) {
  sim::Environment env(4);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "vision");
  // One job occupying 1 of 22 GPUs for ~an hour of a 2-hour window.
  auto job_id = client.submit_training(workload::cnn_small(), 1.0);
  ASSERT_TRUE(job_id.ok());
  env.run_until(util::hours(2));
  const double utilization = platform.fleet_utilization(0, util::hours(2));
  EXPECT_GT(utilization, 0.015);
  EXPECT_LT(utilization, 0.035);
  const auto per_node = platform.per_node_utilization(0, util::hours(2));
  EXPECT_EQ(per_node.size(), 11u);
  double max_node = 0;
  for (const auto& [host, value] : per_node) max_node = std::max(max_node, value);
  EXPECT_GT(max_node, 0.3);  // the node that ran it was ~50% busy
}

TEST(PlatformTest, InterruptionInjectionAndRejoin) {
  sim::Environment env(5);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  const std::string machine = Platform::machine_id_for("ws-vision-0");
  workload::Interruption event;
  event.machine_id = machine;
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(20);
  event.at = env.now();
  platform.inject_interruption(event);
  env.run_until(env.now() + util::minutes(2));
  EXPECT_EQ(platform.coordinator().directory().find(machine)->status,
            db::NodeStatus::kUnavailable);
  env.run_until(env.now() + util::minutes(25));
  EXPECT_EQ(platform.coordinator().directory().find(machine)->status,
            db::NodeStatus::kActive);
}

TEST(PlatformTest, OwnerReclaimEvictsGuestForOwnerJob) {
  sim::Environment env(6);
  CampusConfig config = paper_campus();
  // Shrink to one workstation so the owner/guest conflict is forced.
  config.nodes.resize(1);  // ws-vision-0 only
  Platform platform(env, config);
  platform.start();
  env.run_until(5.0);

  // A guest (nlp) fills the only GPU.
  Client guest(platform, "nlp");
  auto guest_job = guest.submit_training(workload::cnn_small(), 4.0);
  ASSERT_TRUE(guest_job.ok());
  env.run_until(env.now() + util::minutes(12));  // past one checkpoint
  ASSERT_EQ(guest.status(*guest_job)->phase, sched::JobPhase::kRunning);

  // The owner (vision) submits with a home-node hint: reclaim fires.
  Client owner(platform, "vision");
  SubmitOptions options;
  options.home_hostname = "ws-vision-0";
  auto owner_job = owner.submit_training(workload::cnn_small(), 0.5, options);
  ASSERT_TRUE(owner_job.ok());
  env.run_until(env.now() + util::minutes(3));
  EXPECT_EQ(owner.status(*owner_job)->phase, sched::JobPhase::kRunning);
  // Guest went back to pending (single node campus: nowhere else to go).
  EXPECT_EQ(guest.status(*guest_job)->phase, sched::JobPhase::kPending);
  EXPECT_GE(guest.status(*guest_job)->interruptions, 1);
}

TEST(PlatformTest, MetricsExposedInPrometheusFormat) {
  sim::Environment env(7);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(util::minutes(3));  // two metric refreshes
  const std::string text = monitor::expose_registry(platform.metrics());
  EXPECT_NE(text.find("# TYPE gpunion_nodes_active gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gpunion_nodes_active 11"), std::string::npos);
  EXPECT_NE(text.find("gpunion_gpu_busy_fraction{node=\"srv-mlsys-0\"}"),
            std::string::npos);
}

TEST(PlatformTest, MonitoringWritesNothingToTheDatabase) {
  // The metric registry is the only monitoring store: neither telemetry
  // reports (every 30 s per node) nor metric refreshes (every 60 s) may
  // reach the database's write-behind ledger on an idle campus.
  sim::Environment env(11);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(util::minutes(1));  // registration settled
  const util::SimTime settled = env.now();
  const std::uint64_t absorbed =
      platform.database().ledger().stats().absorbed;
  env.run_until(settled + util::hours(1));
  EXPECT_EQ(platform.database().ledger().stats().absorbed, absorbed);
  // Telemetry still crosses the network, and the exposition still reads
  // the fleet.
  EXPECT_GT(platform.network().bytes_in_window(net::TrafficClass::kTelemetry,
                                               settled, env.now()),
            0u);
  EXPECT_NE(monitor::expose_registry(platform.metrics())
                .find("gpunion_nodes_active 11"),
            std::string::npos);
}

TEST(PlatformTest, DatabaseAccountingCarriesAcrossARecovery) {
  // The database's charged ops, WAL traffic and group commits over a whole
  // campus run with one dirty-ledger crash in it.  The counters are
  // accounting, not state, so crash_and_recover() keeps them running; the
  // pinned values keep the store's cost model still while its
  // implementation changes.
  sim::Environment env(5);
  Platform platform(env, paper_campus());
  platform.start();
  platform.register_crash_points(/*downtime=*/5.0);
  env.run_until(10.0);
  sched::Coordinator& coordinator = platform.coordinator();
  const std::vector<std::string>& groups = paper_groups();
  for (int i = 0; i < 40; ++i) {
    const std::string& group = groups[i % groups.size()];
    workload::JobSpec job =
        i % 4 == 3 ? workload::make_interactive_session(
                         "session-" + std::to_string(i), 0.5, group, env.now())
                   : workload::make_training_job(
                         "train-" + std::to_string(i), workload::cnn_small(),
                         0.25 + 0.05 * (i % 5), group, env.now());
    ASSERT_TRUE(coordinator.submit(std::move(job)).is_ok());
  }
  env.run_until(120.0);
  ASSERT_TRUE(coordinator.cancel("train-1").is_ok());
  ASSERT_TRUE(coordinator.cancel("train-38").is_ok());
  // Crash at the first event that leaves a deferred record in the WAL, so
  // recovery replays acked work.
  const db::ShardedDatabase& database = platform.database();
  while (database.wal().depth() == 0 && env.step()) {
  }
  ASSERT_TRUE(platform.fault_injector().inject_now(
      std::string(sim::kCrashPostAckPreFlush)));
  env.run_until(util::hours(2));

  ASSERT_EQ(database.recoveries(), 1u);
  EXPECT_EQ(coordinator.stats().jobs_completed, 38);
  EXPECT_EQ(database.op_count(), 43320u);
  EXPECT_EQ(database.sync_op_count(), 43282u);
  EXPECT_EQ(database.shard_op_counts(),
            (std::vector<std::uint64_t>{10832, 10822, 10836, 10830}));
  EXPECT_EQ(database.local_pops(), 5u);
  EXPECT_EQ(database.stolen_pops(), 34u);
  const db::WalStats& wal = database.wal().stats();
  EXPECT_EQ(wal.appended, 14999u);
  EXPECT_EQ(wal.truncated, 14999u);
  EXPECT_EQ(wal.replayed, 1u);
  const db::LedgerStats& ledger = database.ledger().stats();
  EXPECT_EQ(ledger.absorbed, 118u);
  EXPECT_EQ(ledger.flushes, 35u);
  EXPECT_EQ(ledger.shard_commits, 38u);
}

TEST(PlatformTest, CheckpointTrafficFlowsToNas) {
  sim::Environment env(8);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "bio");
  SubmitOptions options;
  options.checkpoint_interval = util::minutes(5);
  options.preferred_storage = {"nas-campus"};
  auto job_id =
      client.submit_training(workload::transformer_small(), 2.0, options);
  ASSERT_TRUE(job_id.ok());
  env.run_until(env.now() + util::hours(1));
  EXPECT_GT(platform.network().bytes_sent(net::TrafficClass::kCheckpoint),
            1ULL << 30);
  const auto& chain = platform.checkpoint_store().chain(*job_id);
  EXPECT_GE(chain.size(), 5u);
  EXPECT_EQ(chain.front().storage_node, "nas-campus");
}

/// What one run_with_strays() leaves behind.
struct StrayRun {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> class_bytes;  // per traffic class
  std::vector<int> coordinator_stats;      // the journaled counters
  std::uint64_t heartbeats_processed = 0;
  std::vector<std::uint64_t> heartbeats_sent;  // per agent
  sched::JobPhase phase = sched::JobPhase::kPending;
  int replies = 0;  // messages that reached the strays' sender
};

/// Runs the paper campus for an hour with one checkpointing job.  With
/// `strays`, a payload its receiver does not serve goes mid-run to the
/// coordinator (a KillJobCommand for the running job), to the agent running
/// it, to the NAS and to the image registry (an agent Heartbeat each).
StrayRun run_with_strays(bool strays) {
  sim::Environment env(12);
  Platform platform(env, paper_campus());
  net::SimNetwork& network = platform.network();
  StrayRun run;
  network.register_endpoint("intruder",
                            [&run](net::Message&&) { ++run.replies; });
  platform.start();
  env.run_until(5.0);
  Client client(platform, "bio");
  SubmitOptions options;
  options.checkpoint_interval = util::minutes(5);
  auto job_id =
      client.submit_training(workload::transformer_small(), 0.5, options);
  EXPECT_TRUE(job_id.ok());
  env.run_until(util::minutes(20));
  if (strays) {
    const sched::JobRecord* record = client.status(*job_id);
    EXPECT_EQ(record->phase, sched::JobPhase::kRunning);
    auto send = [&network](const std::string& to, net::Payload payload) {
      EXPECT_TRUE(network
                      .send({.from = "intruder",
                             .to = to,
                             .size_bytes = agent::kControlBytes,
                             .payload = std::move(payload)})
                      .is_ok());
    };
    agent::Heartbeat beat;
    beat.machine_id = "intruder";
    send("coordinator",
         agent::KillJobCommand{*job_id, /*allow_checkpoint=*/false});
    send(record->node, beat);
    send(platform.config().storage.front().id, beat);
    send("image-registry", beat);
  }
  env.run_until(util::hours(1));

  run.delivered = network.messages_delivered();
  run.dropped = network.messages_dropped();
  for (int c = 0; c < static_cast<int>(net::TrafficClass::kClassCount); ++c) {
    run.class_bytes.push_back(
        network.bytes_sent(static_cast<net::TrafficClass>(c)));
  }
  const sched::CoordinatorStats& stats = platform.coordinator().stats();
  for (const auto counter : sched::kJournaledStats) {
    run.coordinator_stats.push_back(stats.*counter);
  }
  run.heartbeats_processed = stats.heartbeats_processed;
  for (const std::string& id : platform.machine_ids()) {
    run.heartbeats_sent.push_back(platform.agent(id)->heartbeats_sent());
  }
  run.phase = client.status(*job_id)->phase;
  return run;
}

// Each receiver ignores a payload it does not serve: the stray is delivered,
// nothing answers it and nothing changes.  The run with the four strays
// differs from the run without them by the strays alone.
TEST(PlatformTest, ReceiversIgnorePayloadsTheyDoNotServe) {
  const StrayRun quiet = run_with_strays(false);
  const StrayRun stray = run_with_strays(true);
  EXPECT_EQ(stray.delivered, quiet.delivered + 4);
  EXPECT_EQ(stray.dropped, quiet.dropped);
  EXPECT_EQ(stray.replies, 0);
  auto at = [](net::TrafficClass c) { return static_cast<std::size_t>(c); };
  std::vector<std::uint64_t> expected_bytes = quiet.class_bytes;
  expected_bytes[at(net::TrafficClass::kControl)] += 4 * agent::kControlBytes;
  EXPECT_EQ(stray.class_bytes, expected_bytes);
  // The NAS took the job's backups in both runs.
  EXPECT_GT(quiet.class_bytes[at(net::TrafficClass::kCheckpoint)], 0u);
  EXPECT_EQ(stray.coordinator_stats, quiet.coordinator_stats);
  EXPECT_EQ(stray.heartbeats_processed, quiet.heartbeats_processed);
  EXPECT_EQ(stray.heartbeats_sent, quiet.heartbeats_sent);
  // The run went on: the job the stray kill command named completed.
  EXPECT_EQ(stray.phase, sched::JobPhase::kCompleted);
  EXPECT_EQ(quiet.phase, sched::JobPhase::kCompleted);
}

TEST(PlatformTest, MachineIdsAreStable) {
  EXPECT_EQ(Platform::machine_id_for("ws-vision-0"),
            Platform::machine_id_for("ws-vision-0"));
  sim::Environment env(9);
  Platform platform(env, paper_campus());
  EXPECT_NE(platform.agent_by_hostname("ws-vision-0"), nullptr);
  EXPECT_EQ(platform.agent(Platform::machine_id_for("ws-vision-0")),
            platform.agent_by_hostname("ws-vision-0"));
  EXPECT_EQ(platform.machine_ids().size(), 11u);
}

TEST(PlatformTest, RejectsDuplicateHostnamesAndStorageIds) {
  // Checked in every build type: a hostname keys the agent and its machine
  // id, a storage id keys its NAS, so a duplicate would hide the first.
  auto construct = [](const CampusConfig& config) {
    sim::Environment env(10);
    Platform platform(env, config);
  };
  CampusConfig twice_host = paper_campus();
  ASSERT_EQ(twice_host.nodes[0].spec.hostname, "ws-vision-0");
  twice_host.nodes.push_back(twice_host.nodes[0]);
  EXPECT_THROW(construct(twice_host), std::invalid_argument);

  CampusConfig twice_nas = paper_campus();
  ASSERT_EQ(twice_nas.storage[0].id, "nas-campus");
  twice_nas.storage.push_back(twice_nas.storage[0]);
  EXPECT_THROW(construct(twice_nas), std::invalid_argument);

  EXPECT_NO_THROW(construct(paper_campus()));
}

TEST(PlatformTest, RejectsZeroTimerPeriods) {
  // A 0 s period would re-arm its timer at now() forever, so run_until
  // would never return; construction refuses it in every build type.
  auto construct = [](const CampusConfig& config) {
    sim::Environment env(12);
    Platform platform(env, config);
  };
  CampusConfig no_refresh = paper_campus();
  no_refresh.scrape_interval = 0;
  EXPECT_THROW(construct(no_refresh), std::invalid_argument);

  CampusConfig no_flush = paper_campus();
  no_flush.db.flush_interval = 0;
  EXPECT_THROW(construct(no_flush), std::invalid_argument);
}

}  // namespace
}  // namespace gpunion
