// Coordinator crash/restart lifecycle against real agents.
//
// The contract under test: a coordinator process crash loses NOTHING a
// caller was acked — on recover() the live jobs, archive, per-node
// indexes, reliability-relevant counters and in-flight dispatch decisions
// are rebuilt from the durable database, granted-but-undelivered
// dispatches are re-dispatched, and the stale-ack kill path makes a
// duplicate run impossible.  Messages sent while crashed are dropped
// (the coordinator answers nothing), which is exactly the outage the
// heartbeat reconciliation path must absorb afterwards.
#include "sched/coordinator.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "agent/provider_agent.h"
#include "baseline/presets.h"
#include "net/sim_network.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

class CoordinatorRecoveryTest : public ::testing::Test {
 protected:
  CoordinatorRecoveryTest() : env_(7), net_(env_, {}) {
    registry_.allow_base("nvidia/cuda:12.1-runtime");
    EXPECT_TRUE(registry_
                    .push(container::make_image("pytorch", "2.3-cuda12.1",
                                                "nvidia/cuda:12.1-runtime",
                                                6ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(store_.add_node("nas", 1ULL << 40).is_ok());
    net_.register_endpoint("nas", [this](net::Message&& msg) {
      if (msg.kind != agent::kRestoreRequest) return;
      const auto& request =
          std::any_cast<const agent::RestoreRequest&>(msg.payload);
      net::Message data;
      data.from = "nas";
      data.to = request.requester;
      data.kind = agent::kRestoreData;
      data.traffic_class = net::TrafficClass::kMigration;
      data.size_bytes = std::max<std::uint64_t>(1, request.bytes);
      data.payload = agent::RestoreData{request.job_id};
      ASSERT_TRUE(net_.send(std::move(data)).is_ok());
    });
  }

  void make_coordinator(CoordinatorConfig config = {}) {
    config.heartbeat_interval = 2.0;
    coordinator_ =
        std::make_unique<Coordinator>(env_, net_, database_, store_, config);
    coordinator_->start();
  }

  void add_agent(const std::string& hostname) {
    add_agent(hw::workstation_3090(hostname));
  }

  void add_agent(hw::NodeSpec spec) {
    nodes_.push_back(std::make_unique<hw::NodeModel>(std::move(spec)));
    agent::AgentConfig config;
    config.owner_group = "nlp";
    config.telemetry_interval = 1e9;
    config.heartbeat_interval = 2.0;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
    agents_.back()->join();
    env_.run_until(env_.now() + 1.0);
  }

  workload::JobSpec training_job(const std::string& id, double hours = 0.2) {
    return workload::make_training_job(id, workload::cnn_small(), hours,
                                       "nlp", env_.now());
  }

  sim::Environment env_;
  net::SimNetwork net_;
  db::SystemDatabase database_;
  storage::CheckpointStore store_;
  container::ImageRegistry registry_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<hw::NodeModel>> nodes_;
  std::vector<std::unique_ptr<agent::ProviderAgent>> agents_;
};

TEST_F(CoordinatorRecoveryTest, RunningJobSurvivesCrashAndCompletesOnce) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1")).is_ok());
  env_.run_until(env_.now() + 30.0);
  ASSERT_EQ(coordinator_->job("job-1")->phase, JobPhase::kRunning);
  const std::string node = coordinator_->job("job-1")->node;

  coordinator_->crash();
  EXPECT_TRUE(coordinator_->crashed());
  env_.run_until(env_.now() + 1.0);  // heartbeats land on a dead socket
  coordinator_->recover();
  EXPECT_FALSE(coordinator_->crashed());
  EXPECT_EQ(coordinator_->recovery_stats().recoveries, 1);
  EXPECT_GE(coordinator_->recovery_stats().nodes_rebuilt, 1);
  EXPECT_GE(coordinator_->recovery_stats().jobs_rebuilt, 1);

  // The rebuilt record is bound to the same node with its allocation open,
  // and the job finishes exactly once — the agent never noticed a thing.
  const JobRecord* record = coordinator_->job("job-1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_EQ(record->node, node);
  EXPECT_NE(record->open_allocation, 0u);
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 1);
  const auto allocations = database_.allocations_for_job("job-1");
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].outcome, db::AllocationOutcome::kCompleted);
}

TEST_F(CoordinatorRecoveryTest, CrashMidDispatchRunsTheJobExactlyOnce) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1")).is_ok());
  // Walk the clock in tiny steps until the grant is in flight: the record
  // says kDispatching, the agent has not confirmed.  The ack round trip is
  // sub-millisecond on the campus LAN, so the step must be finer still.
  for (int i = 0; i < 100000; ++i) {
    if (coordinator_->job("job-1")->phase != JobPhase::kPending) break;
    env_.run_until(env_.now() + 1e-5);
  }
  ASSERT_EQ(coordinator_->job("job-1")->phase, JobPhase::kDispatching);

  // Crash across the ack window: the agent's DispatchResult hits a dead
  // coordinator and vanishes.
  coordinator_->crash();
  env_.run_until(env_.now() + 2.0);
  coordinator_->recover();
  // The durable row said granted-but-unconfirmed: requeued at the front
  // and re-dispatched immediately.
  EXPECT_EQ(coordinator_->recovery_stats().redispatched, 1);

  // Exactly one completion, one allocation — the stale-ack kill path and
  // the agent-side duplicate-dispatch handling must collapse the re-grant
  // and the original run into one.
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 1);
  const JobRecord* record = coordinator_->job("job-1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kCompleted);
  int open = 0;
  for (const auto& allocation : database_.allocations_for_job("job-1")) {
    if (allocation.outcome == db::AllocationOutcome::kRunning) ++open;
  }
  EXPECT_EQ(open, 0) << "a duplicate run left an allocation open";
}

TEST_F(CoordinatorRecoveryTest, CountersAndArchiveSurviveRecovery) {
  make_coordinator();
  add_agent("ws-0");
  add_agent("ws-1");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.05)).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("job-2", 0.05)).is_ok());
  env_.run_until(env_.now() + util::hours(0.15));
  ASSERT_EQ(coordinator_->stats().jobs_completed, 2);
  const auto before = coordinator_->stats();
  const std::size_t archived_before = coordinator_->archive().size();

  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  coordinator_->recover();

  // Every journaled counter comes back as it was...
  const auto& after = coordinator_->stats();
  for (std::size_t i = 0; i < std::size(kJournaledStats); ++i) {
    EXPECT_EQ(after.*kJournaledStats[i], before.*kJournaledStats[i])
        << "journaled counter " << i;
  }
  // ...and conservation math still closes after the restart (live +
  // archived + withdrawn == submitted).
  EXPECT_EQ(coordinator_->archive().size(), archived_before);
  EXPECT_EQ(after.jobs_submitted,
            static_cast<int>(coordinator_->jobs().size() +
                             coordinator_->archive().size()) +
                after.jobs_withdrawn);
}

TEST_F(CoordinatorRecoveryTest, PendingJobsKeepTheirQueuePositionAcrossCrash) {
  make_coordinator();
  // No agents yet: everything stays pending.
  ASSERT_TRUE(coordinator_->submit(training_job("job-1")).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("job-2")).is_ok());
  env_.run_until(env_.now() + 5.0);
  ASSERT_EQ(database_.queue_depth(), 2u);

  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  coordinator_->recover();
  EXPECT_EQ(coordinator_->recovery_stats().jobs_rebuilt, 2);
  EXPECT_EQ(database_.queue_depth(), 2u);

  // Capacity arrives after the restart; both queued jobs drain and finish.
  add_agent("ws-0");
  add_agent("ws-1");
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 2);
}

TEST_F(CoordinatorRecoveryTest, SharedTenantsKeepTheirModeAndSeatsAcrossCrash) {
  // Recovery re-reserves each running record's capacity from its persisted
  // tenancy mode.  One 4-GPU server hosts two time-slice tenants and two
  // fractional tenants; the rebuilt scheduling view must equal the one
  // before the crash, and the next heartbeat must leave it there.
  CoordinatorConfig config;
  config.strategy = std::string(kAdaptiveSharing);
  make_coordinator(config);
  ASSERT_TRUE(registry_
                  .push(container::make_image("jupyter-dl", "latest",
                                              "nvidia/cuda:12.1-runtime",
                                              8ULL << 30, "m"))
                  .is_ok());
  add_agent(hw::with_timeslicing(hw::server_4xa6000("srv"), 4));
  const std::string machine = agents_.back()->machine_id();
  // Bursty sessions take time-slice seats; steady shareable training
  // takes fractional slots.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(coordinator_
                    ->submit(workload::make_interactive_session(
                        "sess-" + std::to_string(i), 2.0, "nlp", env_.now()))
                    .is_ok());
    auto steady = training_job("steady-" + std::to_string(i), 2.0);
    steady.requirements.shareable = true;
    ASSERT_TRUE(coordinator_->submit(steady).is_ok());
  }
  env_.run_until(env_.now() + 30.0);
  std::map<std::string, hw::Tenancy> modes;
  for (const auto& [id, record] : coordinator_->jobs()) {
    ASSERT_EQ(record.phase, JobPhase::kRunning) << id;
    modes[id] = record.tenancy;
  }
  ASSERT_EQ(modes.size(), 4u);
  EXPECT_EQ(modes.at("sess-0"), hw::Tenancy::kTimeslice);
  EXPECT_EQ(modes.at("sess-1"), hw::Tenancy::kTimeslice);
  EXPECT_EQ(modes.at("steady-0"), hw::Tenancy::kFractional);
  EXPECT_EQ(modes.at("steady-1"), hw::Tenancy::kFractional);
  const NodeInfo before =
      *std::as_const(*coordinator_).directory().find(machine);
  EXPECT_EQ(before.free_gpus, 2);
  EXPECT_EQ(before.free_seats[hw::Tenancy::kTimeslice], 2);
  EXPECT_EQ(before.free_seats[hw::Tenancy::kFractional], 2);

  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  coordinator_->recover();
  auto expect_as_before = [&](const std::string& when) {
    const NodeInfo* node =
        std::as_const(*coordinator_).directory().find(machine);
    ASSERT_NE(node, nullptr) << when;
    EXPECT_EQ(node->free_gpus, before.free_gpus) << when;
    for (const hw::Tenancy mode : hw::kSharedTenancies) {
      EXPECT_EQ(node->free_seats[mode], before.free_seats[mode])
          << when << ": free " << hw::tenancy_unit(mode) << "s";
    }
    for (const auto& [id, mode] : modes) {
      const JobRecord* record = coordinator_->job(id);
      ASSERT_NE(record, nullptr) << when << ": " << id;
      EXPECT_EQ(record->phase, JobPhase::kRunning) << when << ": " << id;
      EXPECT_EQ(record->tenancy, mode) << when << ": " << id;
    }
  };
  expect_as_before("rebuilt from the database");
  env_.run_until(env_.now() + 2.5);  // one heartbeat
  expect_as_before("after a heartbeat");
}

TEST_F(CoordinatorRecoveryTest, PendingSessionIsDeniedOnTimeAcrossCrash) {
  make_coordinator();
  // No agents: the session can never be placed.
  const util::SimTime submitted = env_.now();
  ASSERT_TRUE(coordinator_
                  ->submit(workload::make_interactive_session(
                      "sess-1", 1.0, "nlp", submitted))
                  .is_ok());
  env_.run_until(submitted + 100.0);
  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  coordinator_->recover();

  // The patience timer armed at submit died with the process; recovery
  // re-arms it for the remaining window, so the student gives up at the
  // same instant as without the crash.
  while (coordinator_->job("sess-1")->phase == JobPhase::kPending) {
    ASSERT_TRUE(env_.step());
  }
  EXPECT_EQ(coordinator_->job("sess-1")->phase, JobPhase::kDenied);
  EXPECT_DOUBLE_EQ(env_.now(), submitted + kSessionPatience);
  EXPECT_EQ(coordinator_->stats().sessions_denied, 1);
  EXPECT_EQ(database_.queue_depth(), 0u);
}

TEST_F(CoordinatorRecoveryTest, ManualResubmitIsReArmedAcrossCrash) {
  // Manual coordination: an interrupted job waits for a human to resubmit
  // it.  Job "early" loses its node, is resubmitted before the crash and
  // still waits in the queue for capacity; job "late" loses its node
  // shortly before the crash, so its resubmit timer dies with the process.
  CampusConfig campus;
  baseline::apply_preset(campus, baseline::Preset::kManual);
  make_coordinator(campus.coordinator);
  add_agent("ws-0");
  add_agent("ws-1");
  ASSERT_TRUE(coordinator_->submit(training_job("job-a", 0.5)).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("job-b", 2.0)).is_ok());
  env_.run_until(env_.now() + 30.0);
  ASSERT_EQ(coordinator_->job("job-a")->phase, JobPhase::kRunning);
  ASSERT_EQ(coordinator_->job("job-b")->phase, JobPhase::kRunning);
  auto host_of = [this](const std::string& job_id) -> agent::ProviderAgent& {
    return coordinator_->job(job_id)->node == agents_[0]->machine_id()
               ? *agents_[0]
               : *agents_[1];
  };
  agent::ProviderAgent& early_host = host_of("job-a");
  agent::ProviderAgent& late_host = host_of("job-b");

  early_host.depart_emergency();
  env_.run_until(env_.now() + kManualResubmitDelay + 60.0);
  ASSERT_EQ(coordinator_->job("job-a")->phase, JobPhase::kPending);
  ASSERT_EQ(database_.queue_depth(), 1u);  // resubmitted, nowhere to run

  late_host.depart_emergency();
  env_.run_until(env_.now() + 60.0);
  ASSERT_EQ(coordinator_->job("job-b")->phase, JobPhase::kPending);
  ASSERT_EQ(database_.queue_depth(), 1u);  // job-b awaits its human

  coordinator_->crash();
  env_.run_until(env_.now() + 1.0);
  coordinator_->recover();
  const util::SimTime recovered_at = env_.now();

  // Recovery re-arms the resubmit of both pending interrupted jobs: job-b
  // is queued one delay later, and job-a keeps one queue row, not two.
  env_.run_until(recovered_at + kManualResubmitDelay - 1.0);
  EXPECT_EQ(database_.queue_depth(), 1u);
  env_.run_until(recovered_at + kManualResubmitDelay + 1.0);
  EXPECT_EQ(database_.queue_depth(), 2u);
  EXPECT_EQ(coordinator_->job("job-a")->phase, JobPhase::kPending);
  EXPECT_EQ(coordinator_->job("job-b")->phase, JobPhase::kPending);

  // Capacity returns; both jobs resume from their checkpoints and finish.
  early_host.rejoin();
  late_host.rejoin();
  env_.run_until(env_.now() + util::hours(2.5));
  EXPECT_EQ(coordinator_->job("job-a")->phase, JobPhase::kCompleted);
  EXPECT_EQ(coordinator_->job("job-b")->phase, JobPhase::kCompleted);
  EXPECT_EQ(database_.queue_depth(), 0u);
}

}  // namespace
}  // namespace gpunion::sched
