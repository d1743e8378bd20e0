// ProviderAgent behaviour against a scripted fake coordinator.
#include "agent/provider_agent.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/sim_network.h"
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

    // Fake coordinator: record everything, auto-accept registrations.
    net_.register_endpoint("coordinator", [this](net::Message&& msg) {
      inbox_.push_back(msg.kind);
      if (msg.kind == kRegisterRequest) {
        RegisterResponse response;
        response.accepted = true;
        response.auth_token = "token";
        response.heartbeat_interval = 2.0;
        net::Message reply;
        reply.from = "coordinator";
        reply.to = std::any_cast<const RegisterRequest&>(msg.payload)
                       .machine_id;
        reply.kind = kRegisterResponse;
        reply.size_bytes = kRegisterBytes;
        reply.payload = response;
        ASSERT_TRUE(net_.send(std::move(reply)).is_ok());
      } else {
        payloads_[msg.kind].push_back(msg.payload);
      }
    });
    // NAS endpoint: respond to restore requests like the platform does.
    net_.register_endpoint("nas", [this](net::Message&& msg) {
      if (msg.kind != kRestoreRequest) return;
      const auto& request =
          std::any_cast<const RestoreRequest&>(msg.payload);
      net::Message data;
      data.from = "nas";
      data.to = request.requester;
      data.kind = kRestoreData;
      data.traffic_class = net::TrafficClass::kMigration;
      data.size_bytes = std::max<std::uint64_t>(1, request.bytes);
      data.payload = RestoreData{request.job_id};
      ASSERT_TRUE(net_.send(std::move(data)).is_ok());
    });

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
    net::Message msg;
    msg.from = "coordinator";
    msg.to = agent_->machine_id();
    msg.kind = kDispatch;
    msg.size_bytes = 500;
    msg.payload = std::move(request);
    ASSERT_TRUE(net_.send(std::move(msg)).is_ok());
  }

  int count(int kind) const {
    int n = 0;
    for (int k : inbox_) {
      if (k == kind) ++n;
    }
    return n;
  }

  template <typename T>
  std::vector<T> payloads(int kind) {
    std::vector<T> out;
    for (auto& payload : payloads_[kind]) {
      out.push_back(std::any_cast<T>(payload));
    }
    return out;
  }

  sim::Environment env_;
  net::SimNetwork net_;
  hw::NodeModel node_;
  container::ImageRegistry registry_;
  storage::CheckpointStore store_;
  std::unique_ptr<ProviderAgent> agent_;
  std::vector<int> inbox_;
  std::map<int, std::vector<std::any>> payloads_;
};

TEST_F(AgentTest, JoinRegistersAndHeartbeats) {
  join_and_settle();
  EXPECT_EQ(count(kRegisterRequest), 1);
  env_.run_until(env_.now() + 10.0);
  EXPECT_GE(count(kHeartbeat), 4);
  const auto beats = payloads<Heartbeat>(kHeartbeat);
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
  const auto results = payloads<DispatchResult>(kDispatchResult);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].accepted);
  ASSERT_EQ(results[0].gpu_indices.size(), 1u);

  // 0.5 reference-hours on a 3090 (speed ~0.99 with container overhead).
  env_.run_until(env_.now() + util::hours(0.6));
  EXPECT_EQ(count(kJobCompleted), 1);
  EXPECT_EQ(agent_->running_jobs(), 0u);
  EXPECT_EQ(node_.free_gpu_count(), 1);
}

TEST_F(AgentTest, DispatchRejectedWhenPaused) {
  join_and_settle();
  agent_->set_paused(true);
  dispatch_training("job-1");
  env_.run_until(env_.now() + 2.0);
  const auto results = payloads<DispatchResult>(kDispatchResult);
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
  net::Message msg;
  msg.from = "coordinator";
  msg.to = agent_->machine_id();
  msg.kind = kDispatch;
  msg.payload = std::move(request);
  ASSERT_TRUE(net_.send(std::move(msg)).is_ok());
  env_.run_until(env_.now() + 2.0);
  const auto results = payloads<DispatchResult>(kDispatchResult);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].accepted);
}

TEST_F(AgentTest, PeriodicCheckpointsFlow) {
  join_and_settle();
  dispatch_training("job-1", /*hours=*/2.0);
  // Default interval 600 s: expect ~3 checkpoints in ~35 minutes.
  env_.run_until(env_.now() + util::minutes(35));
  EXPECT_GE(count(kCheckpointNotice), 3);
  const auto notices = payloads<CheckpointNotice>(kCheckpointNotice);
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
  EXPECT_EQ(count(kKillSwitchNotice), 1);
}

TEST_F(AgentTest, ScheduledDepartureCheckpointsWithinGrace) {
  join_and_settle();
  dispatch_training("job-1", /*hours=*/2.0);
  env_.run_until(env_.now() + util::minutes(5));
  agent_->depart_scheduled();
  EXPECT_EQ(agent_->state(), AgentState::kDeparted);
  env_.run_until(env_.now() + 1.0);
  const auto notices = payloads<DepartureNotice>(kDepartureNotice);
  ASSERT_EQ(notices.size(), 1u);
  EXPECT_EQ(notices[0].kind, DepartureKind::kScheduled);
  ASSERT_EQ(notices[0].jobs.size(), 1u);
  EXPECT_TRUE(notices[0].jobs[0].fresh_checkpoint);
  EXPECT_GT(notices[0].jobs[0].checkpointed_progress, 0.0);
  // Further heartbeats stop.
  const int beats = count(kHeartbeat);
  env_.run_until(env_.now() + 10.0);
  EXPECT_EQ(count(kHeartbeat), beats);
}

TEST_F(AgentTest, EmergencyDepartureSendsNothing) {
  join_and_settle();
  dispatch_training("job-1");
  env_.run_until(env_.now() + 5.0);
  const auto control_before = inbox_.size();
  agent_->depart_emergency();
  env_.run_until(env_.now() + 10.0);
  // Only heartbeats could have been in flight; no departure notice.
  EXPECT_EQ(count(kDepartureNotice), 0);
  EXPECT_EQ(count(kKillSwitchNotice), 0);
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
  EXPECT_EQ(count(kRegisterRequest), 2);
  EXPECT_EQ(count(kReturnNotice), 1);
}

TEST_F(AgentTest, KillJobCommandWithCheckpoint) {
  join_and_settle();
  dispatch_training("job-1", /*hours=*/2.0);
  env_.run_until(env_.now() + util::minutes(5));
  net::Message msg;
  msg.from = "coordinator";
  msg.to = agent_->machine_id();
  msg.kind = kKillJob;
  msg.payload = KillJobCommand{"job-1", /*allow_checkpoint=*/true};
  ASSERT_TRUE(net_.send(std::move(msg)).is_ok());
  env_.run_until(env_.now() + 2.0);
  const auto acks = payloads<JobKilledAck>(kJobKilledAck);
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
  EXPECT_EQ(count(kJobStarted), 0);  // still transferring
  env_.run_until(env_.now() + 150.0);
  EXPECT_EQ(count(kJobStarted), 1);
  const auto started = payloads<JobStarted>(kJobStarted);
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
  const auto notices = payloads<KillSwitchNotice>(kKillSwitchNotice);
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
  net::Message msg;
  msg.from = "coordinator";
  msg.to = agent_->machine_id();
  msg.kind = kDispatch;
  msg.payload = std::move(request);
  ASSERT_TRUE(net_.send(std::move(msg)).is_ok());
  env_.run_until(env_.now() + util::minutes(50));
  EXPECT_EQ(count(kJobCompleted), 0);
  env_.run_until(env_.now() + util::minutes(15));
  EXPECT_EQ(count(kJobCompleted), 1);
  // Sessions produce no checkpoints.
  EXPECT_EQ(count(kCheckpointNotice), 0);
}

}  // namespace
}  // namespace gpunion::agent
