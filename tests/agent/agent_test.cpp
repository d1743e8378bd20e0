// ProviderAgent behaviour against a scripted fake coordinator.
#include "agent/provider_agent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <variant>
#include <vector>

#include "net/sim_network.h"
#include "tests/sched/restore_stub.h"
#include "workload/profiles.h"

namespace gpunion::agent {
namespace {

class AgentTest : public ::testing::Test {
 protected:
  AgentTest()
      : env_(1),
        net_(env_, {}),
        node_(hw::workstation_3090("ws-test")) {
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

    // Fake coordinator: keep every payload, auto-accept registrations.
    net_.register_endpoint("coordinator", [this](net::Message&& msg) {
      if (const auto* request = std::get_if<RegisterRequest>(&msg.payload)) {
        ASSERT_TRUE(net_.send({.from = "coordinator",
                               .to = request->machine_id,
                               .size_bytes = kRegisterBytes,
                               .payload = RegisterResponse{true, "token", 2.0}})
                        .is_ok());
      }
      inbox_.push_back(std::move(msg.payload));
    });
    sched::attach_restore_stub(net_, "nas");

    AgentConfig config;
    config.owner_group = "vision";
    config.heartbeat_interval = 2.0;
    config.telemetry_interval = 1e9;
    agent_ = std::make_unique<ProviderAgent>(env_, net_, node_, registry_,
                                             store_, config);
  }

  void join_and_settle() {
    agent_->join();
    env_.run_until(env_.now() + 1.0);
    ASSERT_EQ(agent_->state(), AgentState::kActive);
  }

  void dispatch_training(const std::string& job_id, double hours = 2.0,
                         double start_progress = 0.0,
                         std::uint64_t restore_bytes = 0) {
    workload::JobSpec job = workload::make_training_job(
        job_id, workload::cnn_small(), hours, "nlp", env_.now());
    DispatchRequest request;
    request.job = std::move(job);
    request.start_progress = start_progress;
    request.restore_bytes = restore_bytes;
    if (restore_bytes > 0) request.restore_from = "nas";
    send_to_agent(std::move(request), /*bytes=*/500);
  }

  /// Delivers `payload` to the agent as if the coordinator sent it.
  void send_to_agent(net::Payload payload, std::uint64_t bytes = 0) {
    ASSERT_TRUE(net_.send({.from = "coordinator",
                           .to = agent_->machine_id(),
                           .size_bytes = bytes,
                           .payload = std::move(payload)})
                    .is_ok());
  }

  /// How many `T` payloads the agent has sent the coordinator.
  template <typename T>
  int count() const {
    return static_cast<int>(
        std::ranges::count_if(inbox_, [](const net::Payload& payload) {
          return std::holds_alternative<T>(payload);
        }));
  }

  /// The `T` payloads the agent has sent the coordinator, in order.
  template <typename T>
  std::vector<T> payloads() const {
    std::vector<T> out;
    for (const net::Payload& payload : inbox_) {
      if (const T* p = std::get_if<T>(&payload)) out.push_back(*p);
    }
    return out;
  }

  sim::Environment env_;
  net::SimNetwork net_;
  hw::NodeModel node_;
  container::ImageRegistry registry_;
  storage::CheckpointStore store_;
  std::unique_ptr<ProviderAgent> agent_;
  std::vector<net::Payload> inbox_;
};

TEST_F(AgentTest, JoinRegistersAndHeartbeats) {
  join_and_settle();
  EXPECT_EQ(count<RegisterRequest>(), 1);
  env_.run_until(env_.now() + 10.0);
  EXPECT_GE(count<Heartbeat>(), 4);
  const auto beats = payloads<Heartbeat>();
  ASSERT_FALSE(beats.empty());
  EXPECT_EQ(beats.back().auth_token, "token");
  EXPECT_EQ(beats.back().free_gpus, 1);
  EXPECT_TRUE(beats.back().accepting);
}

TEST_F(AgentTest, DispatchRunsToCompletion) {
  join_and_settle();
  dispatch_training("job-1", /*hours=*/0.5);
  env_.run_until(env_.now() + 5.0);
  EXPECT_EQ(agent_->running_jobs(), 1u);
  EXPECT_EQ(node_.free_gpu_count(), 0);
  const auto results = payloads<DispatchResult>();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].accepted);
  ASSERT_EQ(results[0].gpu_indices.size(), 1u);

  // 0.5 reference-hours on a 3090 (speed ~0.99 with container overhead).
  env_.run_until(env_.now() + util::hours(0.6));
  EXPECT_EQ(count<JobCompleted>(), 1);
  EXPECT_EQ(agent_->running_jobs(), 0u);
  EXPECT_EQ(node_.free_gpu_count(), 1);
}

TEST_F(AgentTest, DispatchRejectedWhenPaused) {
  join_and_settle();
  agent_->set_paused(true);
  dispatch_training("job-1");
  env_.run_until(env_.now() + 2.0);
  const auto results = payloads<DispatchResult>();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].accepted);
  EXPECT_EQ(agent_->running_jobs(), 0u);
}

TEST_F(AgentTest, DispatchRejectedWhenNoGpuFits) {
  join_and_settle();
  workload::JobSpec job = workload::make_training_job(
      "big", workload::transformer_large(), 4.0, "nlp", env_.now());
  DispatchRequest request;
  request.job = std::move(job);  // needs 40 GB VRAM; 3090 has 24
  send_to_agent(std::move(request));
  env_.run_until(env_.now() + 2.0);
  const auto results = payloads<DispatchResult>();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].accepted);
}

TEST_F(AgentTest, PeriodicCheckpointsFlow) {
  join_and_settle();
  dispatch_training("job-1", /*hours=*/2.0);
  // Default interval 600 s: expect ~3 checkpoints in ~35 minutes.
  env_.run_until(env_.now() + util::minutes(35));
  EXPECT_GE(count<CheckpointNotice>(), 3);
  const auto notices = payloads<CheckpointNotice>();
  ASSERT_GE(notices.size(), 2u);
  EXPECT_GT(notices[1].progress, notices[0].progress);
  EXPECT_EQ(notices[0].storage_node, "nas");
  // Checkpoint bytes actually moved across the network.
  EXPECT_GT(net_.bytes_sent(net::TrafficClass::kCheckpoint), 0u);
  // Store holds the chain.
  EXPECT_TRUE(store_.latest("job-1").ok());
}

TEST_F(AgentTest, KillSwitchTerminatesEverythingInstantly) {
  join_and_settle();
  dispatch_training("job-1");
  env_.run_until(env_.now() + 5.0);
  ASSERT_EQ(agent_->running_jobs(), 1u);
  const auto killed = agent_->kill_switch();
  EXPECT_EQ(killed, std::vector<std::string>{"job-1"});
  EXPECT_EQ(agent_->running_jobs(), 0u);
  EXPECT_EQ(node_.free_gpu_count(), 1);  // GPUs released immediately
  env_.run_until(env_.now() + 1.0);
  EXPECT_EQ(count<KillSwitchNotice>(), 1);
}

TEST_F(AgentTest, ScheduledDepartureCheckpointsWithinGrace) {
  join_and_settle();
  dispatch_training("job-1", /*hours=*/2.0);
  env_.run_until(env_.now() + util::minutes(5));
  agent_->depart_scheduled();
  EXPECT_EQ(agent_->state(), AgentState::kDeparted);
  env_.run_until(env_.now() + 1.0);
  const auto notices = payloads<DepartureNotice>();
  ASSERT_EQ(notices.size(), 1u);
  EXPECT_EQ(notices[0].kind, DepartureKind::kScheduled);
  ASSERT_EQ(notices[0].jobs.size(), 1u);
  EXPECT_TRUE(notices[0].jobs[0].fresh_checkpoint);
  EXPECT_GT(notices[0].jobs[0].checkpointed_progress, 0.0);
  // Further heartbeats stop.
  const int beats = count<Heartbeat>();
  env_.run_until(env_.now() + 10.0);
  EXPECT_EQ(count<Heartbeat>(), beats);
}

TEST_F(AgentTest, EmergencyDepartureSendsNothing) {
  join_and_settle();
  dispatch_training("job-1");
  env_.run_until(env_.now() + 5.0);
  const auto control_before = inbox_.size();
  agent_->depart_emergency();
  env_.run_until(env_.now() + 10.0);
  // Only heartbeats could have been in flight; no departure notice.
  EXPECT_EQ(count<DepartureNotice>(), 0);
  EXPECT_EQ(count<KillSwitchNotice>(), 0);
  EXPECT_LE(inbox_.size(), control_before + 1);  // at most one stale beat
  EXPECT_EQ(agent_->running_jobs(), 0u);
}

TEST_F(AgentTest, RejoinAfterDeparture) {
  join_and_settle();
  agent_->depart_emergency();
  env_.run_until(env_.now() + 5.0);
  agent_->rejoin();
  env_.run_until(env_.now() + 2.0);
  EXPECT_EQ(agent_->state(), AgentState::kActive);
  EXPECT_EQ(count<RegisterRequest>(), 2);
  EXPECT_EQ(count<ReturnNotice>(), 1);
}

TEST_F(AgentTest, KillJobCommandWithCheckpoint) {
  join_and_settle();
  dispatch_training("job-1", /*hours=*/2.0);
  env_.run_until(env_.now() + util::minutes(5));
  send_to_agent(KillJobCommand{"job-1", /*allow_checkpoint=*/true});
  env_.run_until(env_.now() + 2.0);
  const auto acks = payloads<JobKilledAck>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].fresh_checkpoint);
  EXPECT_GT(acks[0].checkpointed_progress, 0.0);
  EXPECT_EQ(agent_->running_jobs(), 0u);
}

TEST_F(AgentTest, RestoreDelaysComputeStart) {
  join_and_settle();
  // 12.5 GB restore at 1 Gbps -> ~100 s before compute starts.
  dispatch_training("job-1", /*hours=*/2.0, /*start_progress=*/0.5,
                    /*restore_bytes=*/12'500'000'000ULL);
  env_.run_until(env_.now() + 10.0);
  EXPECT_EQ(count<JobStarted>(), 0);  // still transferring
  env_.run_until(env_.now() + 150.0);
  EXPECT_EQ(count<JobStarted>(), 1);
  const auto started = payloads<JobStarted>();
  EXPECT_DOUBLE_EQ(started[0].start_progress, 0.5);
  EXPECT_GT(net_.bytes_sent(net::TrafficClass::kMigration), 0u);
}

TEST_F(AgentTest, ReclaimEvictsGuestsOnly) {
  join_and_settle();
  // Guest job from another group.
  dispatch_training("guest-job");
  env_.run_until(env_.now() + util::minutes(2));
  ASSERT_EQ(agent_->running_jobs(), 1u);
  const int freed = agent_->reclaim_gpus(1);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(agent_->running_jobs(), 0u);
  env_.run_until(env_.now() + 1.0);
  const auto notices = payloads<KillSwitchNotice>();
  ASSERT_EQ(notices.size(), 1u);
  EXPECT_EQ(notices[0].killed_jobs, std::vector<std::string>{"guest-job"});
  // Guest got a parting checkpoint.
  EXPECT_TRUE(store_.latest("guest-job").ok());
}

TEST_F(AgentTest, InteractiveSessionHasFixedWallClock) {
  join_and_settle();
  workload::JobSpec session = workload::make_interactive_session(
      "sess-1", /*hours=*/1.0, "theory", env_.now());
  DispatchRequest request;
  request.job = std::move(session);
  send_to_agent(std::move(request));
  env_.run_until(env_.now() + util::minutes(50));
  EXPECT_EQ(count<JobCompleted>(), 0);
  env_.run_until(env_.now() + util::minutes(15));
  EXPECT_EQ(count<JobCompleted>(), 1);
  // Sessions produce no checkpoints.
  EXPECT_EQ(count<CheckpointNotice>(), 0);
}

}  // namespace
}  // namespace gpunion::agent
