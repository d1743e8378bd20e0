// Coordinator behaviour with real agents over the simulated network.
#include "sched/coordinator.h"

#include <gtest/gtest.h>

#include "agent/provider_agent.h"
#include "net/sim_network.h"
#include "tests/sched/restore_stub.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest() : env_(3), net_(env_, {}) {
    registry_.allow_base("nvidia/cuda:12.1-runtime");
    EXPECT_TRUE(registry_
                    .push(container::make_image("pytorch", "2.3-cuda12.1",
                                                "nvidia/cuda:12.1-runtime",
                                                6ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(registry_
                    .push(container::make_image("jupyter-dl", "latest",
                                                "nvidia/cuda:12.1-runtime",
                                                8ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(store_.add_node("nas", 1ULL << 40).is_ok());
    attach_restore_stub(net_, "nas");
  }

  void make_coordinator(CoordinatorConfig config = {}) {
    coordinator_ =
        std::make_unique<Coordinator>(env_, net_, database_, store_, config);
    coordinator_->start();
  }

  agent::ProviderAgent& add_agent(const std::string& hostname,
                                  hw::NodeSpec spec,
                                  const std::string& group = "vision") {
    nodes_.push_back(std::make_unique<hw::NodeModel>(std::move(spec)));
    agent::AgentConfig config;
    config.owner_group = group;
    config.telemetry_interval = 1e9;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
    agents_.back()->join();
    env_.run_until(env_.now() + 1.0);
    (void)hostname;
    return *agents_.back();
  }

  workload::JobSpec training_job(const std::string& id, double hours = 1.0) {
    return workload::make_training_job(id, workload::cnn_small(), hours,
                                       "nlp", env_.now());
  }

  /// The agent currently running `job_id` (placement is strategy-dependent).
  agent::ProviderAgent& agent_running(const std::string& job_id) {
    const JobRecord* record = coordinator_->job(job_id);
    EXPECT_NE(record, nullptr);
    for (auto& provider : agents_) {
      if (provider->machine_id() == record->node) return *provider;
    }
    ADD_FAILURE() << "no agent for node " << record->node;
    return *agents_.front();
  }

  /// Some agent other than `provider`.
  agent::ProviderAgent& other_agent(const agent::ProviderAgent& provider) {
    for (auto& candidate : agents_) {
      if (candidate.get() != &provider) return *candidate;
    }
    ADD_FAILURE() << "no other agent";
    return *agents_.front();
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

TEST_F(CoordinatorTest, RegistrationPopulatesDirectoryAndDb) {
  make_coordinator();
  auto& provider = add_agent("ws-0", hw::workstation_3090("ws-0"));
  const NodeInfo* node = coordinator_->directory().find(provider.machine_id());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->gpu_count, 1);
  EXPECT_EQ(node->status, db::NodeStatus::kActive);
  EXPECT_FALSE(node->token_hash.empty());
  EXPECT_TRUE(database_.node(provider.machine_id()).ok());
}

TEST_F(CoordinatorTest, SubmitDispatchesAndCompletes) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.25)).is_ok());
  env_.run_until(env_.now() + 30.0);
  const JobRecord* record = coordinator_->job("job-1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  env_.run_until(env_.now() + util::hours(0.35));
  EXPECT_EQ(record->phase, JobPhase::kCompleted);
  EXPECT_EQ(coordinator_->stats().jobs_completed, 1);
  // Allocation ledger closed as completed.
  const auto allocations = database_.allocations_for_job("job-1");
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].outcome, db::AllocationOutcome::kCompleted);
}

TEST_F(CoordinatorTest, DuplicateSubmitRejected) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  ASSERT_TRUE(coordinator_->submit(training_job("job-1")).is_ok());
  EXPECT_EQ(coordinator_->submit(training_job("job-1")).code(),
            util::StatusCode::kAlreadyExists);
}

TEST_F(CoordinatorTest, QueuesWhenNoCapacityThenRunsOnRelease) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.2)).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("job-2", 0.2)).is_ok());
  env_.run_until(env_.now() + 60.0);
  EXPECT_EQ(coordinator_->job("job-1")->phase, JobPhase::kRunning);
  EXPECT_EQ(coordinator_->job("job-2")->phase, JobPhase::kPending);
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->job("job-2")->phase, JobPhase::kRunning);
  env_.run_until(env_.now() + util::hours(0.3));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 2);
}

TEST_F(CoordinatorTest, EmergencyDepartureDetectedAndJobMigrated) {
  make_coordinator();
  auto& doomed = add_agent("ws-0", hw::workstation_3090("ws-0"));
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 2.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(15));  // one checkpoint at 10 min
  ASSERT_EQ(coordinator_->job("job-1")->phase, JobPhase::kRunning);
  const double progress_before =
      coordinator_->job("job-1")->checkpointed_progress;
  EXPECT_GT(progress_before, 0.0);

  // Spare capacity arrives, then the first provider yanks the cable.
  add_agent("ws-1", hw::workstation_3090("ws-1"));
  doomed.depart_emergency();
  env_.run_until(env_.now() + 60.0);

  const JobRecord* record = coordinator_->job("job-1");
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_EQ(record->node, agents_[1]->machine_id());
  EXPECT_EQ(record->interruptions, 1);
  EXPECT_EQ(record->migrations, 1);
  // Restored from checkpoint, not from scratch.
  EXPECT_DOUBLE_EQ(record->checkpointed_progress, progress_before);
  // Migration tracker has a resumed record.
  const auto& migrations = coordinator_->migrations().records();
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_TRUE(migrations[0].resumed());
  EXPECT_EQ(migrations[0].cause, agent::DepartureKind::kEmergency);
  // Detection took at least the 3-miss deadline.
  EXPECT_GE(migrations[0].downtime(), 6.0);
}

TEST_F(CoordinatorTest, ScheduledDepartureUsesFreshCheckpoint) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  add_agent("ws-1", hw::workstation_3090("ws-1"));
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 4.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(5));  // before first periodic ckpt

  auto& leaving = agent_running("job-1");
  coordinator_->set_cause_hint(leaving.machine_id(),
                               agent::DepartureKind::kScheduled);
  leaving.depart_scheduled();
  env_.run_until(env_.now() + 60.0);

  const JobRecord* record = coordinator_->job("job-1");
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  // Fresh grace-window checkpoint carried real progress despite no periodic
  // checkpoint having fired yet.
  EXPECT_GT(record->checkpointed_progress, 0.01);
  const auto& migrations = coordinator_->migrations().records();
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].cause, agent::DepartureKind::kScheduled);
  // Scheduled departures are detected instantly (notice, not heartbeat).
  EXPECT_LT(migrations[0].downtime(), 60.0);
}

TEST_F(CoordinatorTest, NoCheckpointRestorePolicyRestartsFromScratch) {
  CoordinatorConfig config;
  config.policy.checkpoint_restore = false;
  make_coordinator(config);
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  add_agent("ws-1", hw::workstation_3090("ws-1"));
  workload::JobSpec job = training_job("job-1", 2.0);
  job.checkpoint_interval = 0;  // platform without ALC integration
  ASSERT_TRUE(coordinator_->submit(std::move(job)).is_ok());
  env_.run_until(env_.now() + util::minutes(30));
  agent_running("job-1").depart_emergency();
  env_.run_until(env_.now() + util::minutes(2));
  const JobRecord* record = coordinator_->job("job-1");
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_DOUBLE_EQ(record->checkpointed_progress, 0.0);
  EXPECT_GT(record->lost_work_seconds, util::minutes(25));
}

TEST_F(CoordinatorTest, InteractiveSessionDeniedAfterPatience) {
  make_coordinator();
  // No agents at all: session can never be placed.
  workload::JobSpec session = workload::make_interactive_session(
      "sess-1", 1.0, "theory", env_.now());
  ASSERT_TRUE(coordinator_->submit(std::move(session)).is_ok());
  env_.run_until(env_.now() + kSessionPatience + 1.0);
  EXPECT_EQ(coordinator_->job("sess-1")->phase, JobPhase::kDenied);
  EXPECT_EQ(coordinator_->stats().sessions_denied, 1);
}

TEST_F(CoordinatorTest, InteractiveSessionPriorityBeatsTraining) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  // Fill the single GPU with a short job (shorter than session patience).
  ASSERT_TRUE(coordinator_->submit(training_job("running", 0.1)).is_ok());
  env_.run_until(env_.now() + 30.0);
  // Queue one training job and one session; the session must win the GPU.
  ASSERT_TRUE(coordinator_->submit(training_job("queued-train", 1.0)).is_ok());
  workload::JobSpec session = workload::make_interactive_session(
      "sess-1", 0.5, "theory", env_.now());
  ASSERT_TRUE(coordinator_->submit(std::move(session)).is_ok());
  env_.run_until(env_.now() + util::hours(0.15));
  EXPECT_EQ(coordinator_->job("sess-1")->phase, JobPhase::kRunning);
  EXPECT_EQ(coordinator_->job("queued-train")->phase, JobPhase::kPending);
}

TEST_F(CoordinatorTest, SessionDisruptedOnDeparture) {
  make_coordinator();
  auto& doomed = add_agent("ws-0", hw::workstation_3090("ws-0"));
  workload::JobSpec session = workload::make_interactive_session(
      "sess-1", 2.0, "theory", env_.now());
  ASSERT_TRUE(coordinator_->submit(std::move(session)).is_ok());
  env_.run_until(env_.now() + util::minutes(10));
  ASSERT_EQ(coordinator_->job("sess-1")->phase, JobPhase::kRunning);
  doomed.depart_emergency();
  env_.run_until(env_.now() + util::minutes(2));
  EXPECT_EQ(coordinator_->job("sess-1")->phase, JobPhase::kSessionDisrupted);
  EXPECT_EQ(coordinator_->stats().sessions_disrupted, 1);
}

TEST_F(CoordinatorTest, MigrateBackAfterTemporaryUnavailability) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  add_agent("ws-1", hw::workstation_3090("ws-1"));
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 6.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(15));
  auto& flaky = agent_running("job-1");
  auto& refuge = other_agent(flaky);

  coordinator_->set_cause_hint(flaky.machine_id(),
                               agent::DepartureKind::kTemporary);
  flaky.depart_emergency();
  env_.run_until(env_.now() + util::minutes(5));
  ASSERT_EQ(coordinator_->job("job-1")->node, refuge.machine_id());

  flaky.rejoin();
  env_.run_until(env_.now() + util::minutes(5));
  const JobRecord* record = coordinator_->job("job-1");
  EXPECT_EQ(record->node, flaky.machine_id());
  EXPECT_EQ(record->migrate_backs, 1);
  EXPECT_GT(coordinator_->migrations().migrate_back_rate(), 0.99);
}

TEST_F(CoordinatorTest, CancelPendingAndRunning) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  ASSERT_TRUE(coordinator_->submit(training_job("running", 1.0)).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("queued", 1.0)).is_ok());
  env_.run_until(env_.now() + 30.0);
  ASSERT_TRUE(coordinator_->cancel("queued").is_ok());
  EXPECT_EQ(coordinator_->job("queued")->phase, JobPhase::kCancelled);
  ASSERT_TRUE(coordinator_->cancel("running").is_ok());
  env_.run_until(env_.now() + 30.0);
  EXPECT_EQ(coordinator_->job("running")->phase, JobPhase::kCancelled);
  // GPU freed at the agent.
  EXPECT_EQ(nodes_[0]->free_gpu_count(), 1);
  EXPECT_EQ(coordinator_->cancel("ghost").code(),
            util::StatusCode::kNotFound);
}

TEST_F(CoordinatorTest, CompatibilityConstraintsRouteToRightHardware) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));        // 24 GB, CC 8.6
  add_agent("srv-bio", hw::server_2xa100("srv-bio"));     // 80 GB, CC 8.0
  // transformer-large needs 40 GB VRAM -> only the A100 node fits.
  workload::JobSpec big = workload::make_training_job(
      "big", workload::transformer_large(), 1.0, "bio", env_.now());
  ASSERT_TRUE(coordinator_->submit(std::move(big)).is_ok());
  env_.run_until(env_.now() + 60.0);
  EXPECT_EQ(coordinator_->job("big")->node, agents_[1]->machine_id());
}

TEST_F(CoordinatorTest, ReliabilityDegradationAvoidsFlakyNodeForLongJobs) {
  CoordinatorConfig config;
  config.strategy = std::string(kReliabilityAware);
  make_coordinator(config);
  auto& flaky = add_agent("ws-0", hw::workstation_3090("ws-0"));
  add_agent("ws-1", hw::workstation_3090("ws-1"));
  // Make ws-0 flaky: three quick departures.
  for (int i = 0; i < 3; ++i) {
    flaky.depart_emergency();
    env_.run_until(env_.now() + 30.0);
    flaky.rejoin();
    env_.run_until(env_.now() + 5.0);
  }
  ASSERT_TRUE(coordinator_->submit(training_job("long-job", 20.0)).is_ok());
  env_.run_until(env_.now() + 60.0);
  EXPECT_EQ(coordinator_->job("long-job")->node, agents_[1]->machine_id());
}

TEST_F(CoordinatorTest, HeartbeatAuthRejectsForgedToken) {
  make_coordinator();
  auto& provider = add_agent("ws-0", hw::workstation_3090("ws-0"));
  agent::Heartbeat forged;
  forged.machine_id = provider.machine_id();
  forged.auth_token = "stolen-token";
  forged.seq = 9999;
  forged.free_gpus = 0;
  ASSERT_TRUE(net_.send({.from = provider.machine_id(),
                         .to = "coordinator",
                         .payload = std::move(forged)})
                  .is_ok());
  env_.run_until(env_.now() + 1.0);
  EXPECT_EQ(coordinator_->stats().auth_failures, 1);
  const NodeInfo* node = coordinator_->directory().find(provider.machine_id());
  EXPECT_NE(node->last_heartbeat_seq, 9999u);
}

TEST_F(CoordinatorTest, PausedProviderReceivesNoNewWork) {
  make_coordinator();
  auto& provider = add_agent("ws-0", hw::workstation_3090("ws-0"));
  provider.set_paused(true);
  env_.run_until(env_.now() + 5.0);
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.2)).is_ok());
  env_.run_until(env_.now() + util::minutes(5));
  EXPECT_EQ(coordinator_->job("job-1")->phase, JobPhase::kPending);
  provider.set_paused(false);
  env_.run_until(env_.now() + util::minutes(1));
  EXPECT_EQ(coordinator_->job("job-1")->phase, JobPhase::kRunning);
}

TEST_F(CoordinatorTest, KillSwitchNoticeRequeuesGuests) {
  make_coordinator();
  auto& provider = add_agent("ws-0", hw::workstation_3090("ws-0"));
  ASSERT_TRUE(coordinator_->submit(training_job("guest", 2.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(12));  // past first checkpoint
  provider.kill_switch();
  env_.run_until(env_.now() + 10.0);
  const JobRecord* record = coordinator_->job("guest");
  EXPECT_EQ(record->interruptions, 1);
  // The eviction preserved the latest checkpoint for the relaunch.
  EXPECT_GT(record->checkpointed_progress, 0.0);
  // The node itself is still active (kill-switch is not a departure — the
  // provider did not pause), so the guest is redispatched; it may already
  // be running again by now.
  const NodeInfo* node = coordinator_->directory().find(provider.machine_id());
  EXPECT_EQ(node->status, db::NodeStatus::kActive);
  env_.run_until(env_.now() + util::minutes(2));
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  // The allocation ledger recorded the killed run separately.
  const auto allocations = database_.allocations_for_job("guest");
  ASSERT_GE(allocations.size(), 2u);
  EXPECT_EQ(allocations[0].outcome, db::AllocationOutcome::kKilled);
}

TEST_F(CoordinatorTest, WithdrawRemovesPendingJobEntirely) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.5)).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("job-2", 0.5)).is_ok());
  env_.run_until(env_.now() + 30.0);
  ASSERT_EQ(coordinator_->job("job-2")->phase, JobPhase::kPending);

  // Running jobs cannot be withdrawn; pending jobs can.
  EXPECT_EQ(coordinator_->withdraw("job-1").status().code(),
            util::StatusCode::kFailedPrecondition);
  auto withdrawn = coordinator_->withdraw("job-2");
  ASSERT_TRUE(withdrawn.ok());
  EXPECT_EQ(withdrawn->spec.id, "job-2");
  EXPECT_DOUBLE_EQ(withdrawn->checkpointed_progress, 0.0);

  // Gone without a trace: no record, no archive entry, no queue row — and
  // the id is free again (the job now belongs to another campus).
  EXPECT_EQ(coordinator_->job("job-2"), nullptr);
  EXPECT_EQ(database_.queue_depth(), 0u);
  EXPECT_EQ(coordinator_->stats().jobs_withdrawn, 1);
  EXPECT_EQ(coordinator_->withdraw("job-2").status().code(),
            util::StatusCode::kNotFound);
  EXPECT_TRUE(coordinator_->submit(withdrawn->spec).is_ok());
  env_.run_until(env_.now() + util::hours(1.2));
  EXPECT_EQ(coordinator_->stats().jobs_completed, 2);
}

TEST_F(CoordinatorTest, SubmitWithStartProgressRestoresFromSeededChain) {
  make_coordinator();
  add_agent("ws-0", hw::workstation_3090("ws-0"));
  // A checkpoint shipped in from another campus seeds the local store; the
  // submit carries the durable progress it represents.
  auto job = training_job("migrant", 1.0);
  ASSERT_TRUE(store_
                  .write("migrant", job.state.state_bytes,
                         /*dirty_fraction=*/1.0, /*progress=*/0.6,
                         env_.now())
                  .ok());
  ASSERT_TRUE(coordinator_->submit(job, /*start_progress=*/0.6).is_ok());
  env_.run_until(env_.now() + 60.0);
  const JobRecord* record = coordinator_->job("migrant");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_GE(record->checkpointed_progress, 0.6);
  // 40% of a 1 h reference job remains: done well before the full hour.
  env_.run_until(env_.now() + util::hours(0.6));
  EXPECT_EQ(record->phase, JobPhase::kCompleted);

  // Out-of-range progress is a caller bug.
  EXPECT_EQ(coordinator_->submit(training_job("bad"), 1.0).code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gpunion::sched
