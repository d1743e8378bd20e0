// Protocol robustness: the agent/coordinator pair must self-heal when
// individual messages are lost or late (at-least-once delivery semantics).
#include <gtest/gtest.h>

#include "agent/provider_agent.h"
#include "net/sim_network.h"
#include "sched/coordinator.h"
#include "workload/profiles.h"

namespace gpunion::agent {
namespace {

/// Transport wrapper that drops, or holds back, the next N messages of a
/// given kind, and counts what it passed on per kind.
class FlakyTransport : public net::Transport {
 public:
  FlakyTransport(sim::Environment& env, net::Transport& inner)
      : env_(env), inner_(inner) {}

  void drop_next(int kind, int count) { drops_[kind] += count; }
  /// The next `count` messages of `kind` leave `by` seconds late.
  void delay_next(int kind, int count, util::Duration by) {
    delays_[kind] = {count, by};
  }
  int dropped() const { return total_dropped_; }
  int sent(int kind) const {
    auto it = sent_.find(kind);
    return it == sent_.end() ? 0 : it->second;
  }

  void register_endpoint(const net::NodeId& id,
                         net::MessageHandler handler) override {
    inner_.register_endpoint(id, std::move(handler));
  }
  void unregister_endpoint(const net::NodeId& id) override {
    inner_.unregister_endpoint(id);
  }
  util::Status send(net::Message msg) override {
    auto it = drops_.find(msg.kind);
    if (it != drops_.end() && it->second > 0) {
      --it->second;
      ++total_dropped_;
      return util::Status();  // silently swallowed
    }
    ++sent_[msg.kind];
    if (auto delay = delays_.find(msg.kind);
        delay != delays_.end() && delay->second.first > 0) {
      --delay->second.first;
      env_.schedule_after(delay->second.second,
                          [this, msg = std::move(msg)]() mutable {
                            (void)inner_.send(std::move(msg));
                          });
      return util::Status();
    }
    return inner_.send(std::move(msg));
  }

 private:
  sim::Environment& env_;
  net::Transport& inner_;
  std::map<int, int> drops_;
  std::map<int, std::pair<int, util::Duration>> delays_;
  std::map<int, int> sent_;
  int total_dropped_ = 0;
};

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest()
      : env_(5), net_(env_, {}), transport_(env_, net_) {
    registry_.allow_base("nvidia/cuda:12.1-runtime");
    EXPECT_TRUE(registry_
                    .push(container::make_image("pytorch", "2.3-cuda12.1",
                                                "nvidia/cuda:12.1-runtime",
                                                6ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(store_.add_node("nas", 1ULL << 40).is_ok());
    coordinator_ = std::make_unique<sched::Coordinator>(
        env_, transport_, database_, store_, sched::CoordinatorConfig{});
    coordinator_->start();
    node_ = std::make_unique<hw::NodeModel>(hw::workstation_3090("ws-0"));
    AgentConfig config;
    config.owner_group = "lab";
    config.telemetry_interval = 1e9;
    agent_ = std::make_unique<ProviderAgent>(env_, transport_, *node_,
                                             registry_, store_, config);
  }

  sim::Environment env_;
  net::SimNetwork net_;
  FlakyTransport transport_;
  db::SystemDatabase database_;
  storage::CheckpointStore store_;
  container::ImageRegistry registry_;
  std::unique_ptr<sched::Coordinator> coordinator_;
  std::unique_ptr<hw::NodeModel> node_;
  std::unique_ptr<ProviderAgent> agent_;
};

TEST_F(RobustnessTest, RegistrationRetriesAfterLostResponse) {
  transport_.drop_next(kRegisterResponse, 1);
  agent_->join();
  env_.run_until(5.0);
  EXPECT_EQ(agent_->state(), AgentState::kOffline);  // first response lost
  env_.run_until(30.0);  // retry fires at +10 s
  EXPECT_EQ(agent_->state(), AgentState::kActive);
  EXPECT_GE(transport_.dropped(), 1);
}

TEST_F(RobustnessTest, LostDispatchResultRecoversViaIdempotentRetry) {
  agent_->join();
  env_.run_until(2.0);
  transport_.drop_next(kDispatchResult, 1);  // the accept vanishes
  ASSERT_TRUE(coordinator_
                  ->submit(workload::make_training_job(
                      "job-1", workload::cnn_small(), 0.3, "lab", env_.now()))
                  .is_ok());
  // Dispatch timeout (30 s) requeues; the retry hits the same agent, which
  // re-acknowledges the run it already started.
  env_.run_until(env_.now() + 120.0);
  EXPECT_EQ(coordinator_->job("job-1")->phase, sched::JobPhase::kRunning);
  EXPECT_EQ(agent_->running_jobs(), 1u);  // exactly one run, no double start
  env_.run_until(env_.now() + util::hours(0.5));
  EXPECT_EQ(coordinator_->job("job-1")->phase, sched::JobPhase::kCompleted);
}

TEST_F(RobustnessTest, LateAcceptOfARetriedDispatchKeepsTheRun) {
  agent_->join();
  env_.run_until(2.0);
  // The first accept arrives 40 s late.  The 30 s dispatch timeout
  // requeues the job, the retry reaches the same agent, and the agent
  // re-acknowledges the run it already holds: the record runs there.  The
  // late first accept then describes that very run and must not kill it.
  transport_.delay_next(kDispatchResult, 1, 40.0);
  ASSERT_TRUE(coordinator_
                  ->submit(workload::make_training_job(
                      "job-1", workload::cnn_small(), 0.3, "lab", env_.now()))
                  .is_ok());
  env_.run_until(env_.now() + 120.0);
  const sched::JobRecord* record = coordinator_->job("job-1");
  EXPECT_EQ(record->phase, sched::JobPhase::kRunning);
  EXPECT_EQ(transport_.sent(kKillJob), 0);
  EXPECT_EQ(record->interruptions, 0);
  EXPECT_EQ(database_.allocations_for_job("job-1").size(), 1u);
  EXPECT_EQ(agent_->running_jobs(), 1u);
  env_.run_until(env_.now() + util::hours(0.5));
  EXPECT_EQ(coordinator_->job("job-1")->phase, sched::JobPhase::kCompleted);
  EXPECT_EQ(coordinator_->job("job-1")->interruptions, 0);
}

/// Submits job-1 and cancels it while its dispatch ack is outstanding.
void cancel_mid_dispatch(sim::Environment& env, sched::Coordinator& coordinator) {
  ASSERT_TRUE(coordinator
                  .submit(workload::make_training_job(
                      "job-1", workload::cnn_small(), 0.3, "lab", env.now()))
                  .is_ok());
  env.run_until(env.now() + 1.0);
  ASSERT_EQ(coordinator.job("job-1")->phase, sched::JobPhase::kDispatching);
  ASSERT_TRUE(coordinator.cancel("job-1").is_ok());
  // Live until the ack (or its timeout, or the node's loss) settles the
  // in-flight counter.
  EXPECT_TRUE(coordinator.jobs().contains("job-1"));
}

/// The cancelled record retired, and the scheduling view of the node's
/// free GPUs agrees with the agent's own count again.
void expect_settled(const sched::Coordinator& coordinator,
                    const hw::NodeModel& node, const ProviderAgent& agent) {
  EXPECT_FALSE(coordinator.jobs().contains("job-1"));
  ASSERT_TRUE(coordinator.archive().contains("job-1"));
  EXPECT_EQ(coordinator.archive().at("job-1").phase,
            sched::JobPhase::kCancelled);
  EXPECT_EQ(agent.running_jobs(), 0u);
  const sched::NodeInfo* info =
      coordinator.directory().find(agent.machine_id());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->free_gpus, static_cast<int>(node.free_gpu_count()));
}

TEST_F(RobustnessTest, CancelMidDispatchSettlesWhenTheAckArrives) {
  agent_->join();
  env_.run_until(2.0);
  transport_.delay_next(kDispatchResult, 1, 5.0);
  cancel_mid_dispatch(env_, *coordinator_);
  env_.run_until(env_.now() + 10.0);  // the ack lands, then heartbeats
  expect_settled(*coordinator_, *node_, *agent_);
}

TEST_F(RobustnessTest, CancelMidDispatchSettlesWhenTheAckTimesOut) {
  agent_->join();
  env_.run_until(2.0);
  transport_.drop_next(kDispatchResult, 1);
  cancel_mid_dispatch(env_, *coordinator_);
  env_.run_until(env_.now() + 20.0);
  EXPECT_TRUE(coordinator_->jobs().contains("job-1"));  // still unsettled
  env_.run_until(env_.now() + 20.0);  // the 30 s dispatch timeout fires
  expect_settled(*coordinator_, *node_, *agent_);
}

TEST_F(RobustnessTest, CancelMidDispatchSettlesWhenTheNodeIsLost) {
  agent_->join();
  env_.run_until(2.0);
  transport_.drop_next(kDispatchResult, 1);
  cancel_mid_dispatch(env_, *coordinator_);
  agent_->depart_emergency();
  env_.run_until(env_.now() + 15.0);  // missed heartbeats flag the loss
  EXPECT_FALSE(coordinator_->jobs().contains("job-1"));
  agent_->rejoin();
  env_.run_until(env_.now() + 30.0);  // past the stale dispatch timeout
  expect_settled(*coordinator_, *node_, *agent_);
}

TEST_F(RobustnessTest, LostCompletionReconciledFromHeartbeat) {
  agent_->join();
  env_.run_until(2.0);
  transport_.drop_next(kJobCompleted, 1);
  ASSERT_TRUE(coordinator_
                  ->submit(workload::make_training_job(
                      "job-1", workload::cnn_small(), 0.1, "lab", env_.now()))
                  .is_ok());
  env_.run_until(env_.now() + util::hours(0.2));
  EXPECT_EQ(agent_->running_jobs(), 0u);  // agent finished it
  // The completion notice was dropped; the next heartbeats carry an empty
  // job list and the coordinator reconciles the record as completed.
  env_.run_until(env_.now() + 30.0);
  EXPECT_EQ(coordinator_->job("job-1")->phase, sched::JobPhase::kCompleted);
  const auto allocations = database_.allocations_for_job("job-1");
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].outcome, db::AllocationOutcome::kCompleted);
}

TEST_F(RobustnessTest, LostKillSwitchNoticeReconciledAsLostRun) {
  agent_->join();
  env_.run_until(2.0);
  ASSERT_TRUE(coordinator_
                  ->submit(workload::make_training_job(
                      "job-1", workload::cnn_small(), 2.0, "lab", env_.now()))
                  .is_ok());
  env_.run_until(env_.now() + util::minutes(12));  // one checkpoint done
  ASSERT_EQ(coordinator_->job("job-1")->phase, sched::JobPhase::kRunning);

  transport_.drop_next(kKillSwitchNotice, 1);
  agent_->kill_switch();
  // Heartbeats no longer list the job -> coordinator requeues it, restoring
  // from the checkpoint, and the (only) node runs it again.
  env_.run_until(env_.now() + util::minutes(3));
  const auto* record = coordinator_->job("job-1");
  EXPECT_EQ(record->phase, sched::JobPhase::kRunning);
  EXPECT_GE(record->interruptions, 1);
  EXPECT_GT(record->checkpointed_progress, 0.0);
}

TEST_F(RobustnessTest, LostImagePullRetried) {
  // With a registry endpoint present, a dispatch for an uncached image
  // triggers a pull; the first request vanishes and the agent re-requests.
  net_.register_endpoint("image-registry", [this](net::Message&& msg) {
    if (msg.kind != kImagePullRequest) return;
    const auto& request =
        std::any_cast<const ImagePullRequest&>(msg.payload);
    net::Message data;
    data.from = "image-registry";
    data.to = request.requester;
    data.kind = kImageData;
    data.traffic_class = net::TrafficClass::kImage;
    data.size_bytes = 1 << 20;
    data.payload = ImageData{request.image_ref};
    ASSERT_TRUE(net_.send(std::move(data)).is_ok());
  });
  agent_->join();
  env_.run_until(2.0);
  transport_.drop_next(kImagePullRequest, 1);
  ASSERT_TRUE(coordinator_
                  ->submit(workload::make_training_job(
                      "job-1", workload::cnn_small(), 0.5, "lab", env_.now()))
                  .is_ok());
  env_.run_until(env_.now() + 30.0);
  // Stalled: dispatched (container created) but compute never started.
  EXPECT_EQ(coordinator_->job("job-1")->phase, sched::JobPhase::kRunning);
  EXPECT_DOUBLE_EQ(agent_->job_progress("job-1"), 0.0);
  // The retry at +90 s re-requests the image and compute begins.
  env_.run_until(env_.now() + 150.0);
  EXPECT_GT(agent_->job_progress("job-1"), 0.0);
}

}  // namespace
}  // namespace gpunion::agent
