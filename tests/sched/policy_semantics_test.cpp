// Policy-switch semantics: each PlatformPolicy flag must change exactly the
// behaviour it names.  These run the real coordinator + agents over the
// simulated network with one switch flipped at a time.
#include <gtest/gtest.h>

#include "agent/provider_agent.h"
#include "net/sim_network.h"
#include "sched/coordinator.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

class PolicySemanticsTest : public ::testing::Test {
 protected:
  PolicySemanticsTest() : env_(9), net_(env_, {}) {
    registry_.allow_base("nvidia/cuda:12.1-runtime");
    EXPECT_TRUE(registry_
                    .push(container::make_image("pytorch", "2.3-cuda12.1",
                                                "nvidia/cuda:12.1-runtime",
                                                6ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(store_.add_node("nas", 1ULL << 40).is_ok());
  }

  void make_coordinator(PlatformPolicy policy) {
    CoordinatorConfig config;
    config.policy = policy;
    coordinator_ = std::make_unique<Coordinator>(env_, net_, database_,
                                                 store_, config);
    coordinator_->start();
  }

  agent::ProviderAgent& add_agent(const std::string& hostname,
                                  const std::string& group) {
    nodes_.push_back(
        std::make_unique<hw::NodeModel>(hw::workstation_3090(hostname)));
    agent::AgentConfig config;
    config.owner_group = group;
    config.telemetry_interval = 1e9;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
    agents_.back()->join();
    env_.run_until(env_.now() + 1.0);
    return *agents_.back();
  }

  workload::JobSpec job(const std::string& id, const std::string& group,
                        double hours = 1.0) {
    return workload::make_training_job(id, workload::cnn_small(), hours,
                                       group, env_.now());
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

TEST_F(PolicySemanticsTest, CrossGroupSharingOffConfinesJobsToOwnSilo) {
  PlatformPolicy policy;
  policy.cross_group_sharing = false;
  make_coordinator(policy);
  add_agent("ws-a", "alpha");
  add_agent("ws-b", "beta");
  ASSERT_TRUE(coordinator_->submit(job("alpha-job", "alpha")).is_ok());
  ASSERT_TRUE(coordinator_->submit(job("orphan-job", "gamma")).is_ok());
  env_.run_until(env_.now() + util::minutes(5));
  // alpha's job runs on alpha's machine; gamma owns nothing and waits
  // forever.
  EXPECT_EQ(coordinator_->job("alpha-job")->node, agents_[0]->machine_id());
  EXPECT_EQ(coordinator_->job("orphan-job")->phase, JobPhase::kPending);
}

TEST_F(PolicySemanticsTest, AutoMigrationOffWaitsForHumanResubmission) {
  PlatformPolicy policy;
  policy.auto_migration = false;
  make_coordinator(policy);
  auto& doomed = add_agent("ws-a", "alpha");
  add_agent("ws-b", "alpha");
  ASSERT_TRUE(coordinator_->submit(job("job-1", "alpha", 3.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(12));
  auto& host = coordinator_->job("job-1")->node == doomed.machine_id()
                   ? doomed
                   : *agents_[1];
  host.depart_emergency();
  const util::SimTime departed = env_.now();
  env_.run_until(departed + kManualResubmitDelay - util::minutes(5));
  // No automatic relaunch yet: the "user" resubmits after an hour.
  EXPECT_EQ(coordinator_->job("job-1")->phase, JobPhase::kPending);
  env_.run_until(departed + kManualResubmitDelay + util::minutes(5));
  EXPECT_EQ(coordinator_->job("job-1")->phase, JobPhase::kRunning);
}

TEST_F(PolicySemanticsTest, MigrateBackOffLeavesJobsWhereTheyLanded) {
  PlatformPolicy policy;
  policy.migrate_back = false;
  make_coordinator(policy);
  add_agent("ws-a", "alpha");
  add_agent("ws-b", "alpha");
  ASSERT_TRUE(coordinator_->submit(job("job-1", "alpha", 4.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(12));
  const std::string origin = coordinator_->job("job-1")->node;
  auto& host = origin == agents_[0]->machine_id() ? *agents_[0]
                                                  : *agents_[1];
  coordinator_->set_cause_hint(origin, agent::DepartureKind::kTemporary);
  host.depart_emergency();
  env_.run_until(env_.now() + util::minutes(5));
  const std::string refuge = coordinator_->job("job-1")->node;
  ASSERT_NE(refuge, origin);
  host.rejoin();
  env_.run_until(env_.now() + util::minutes(10));
  // Still on the refuge: no migrate-back was issued.
  EXPECT_EQ(coordinator_->job("job-1")->node, refuge);
  EXPECT_EQ(coordinator_->job("job-1")->migrate_backs, 0);
}

TEST_F(PolicySemanticsTest, RequeueToTailLosesThePlaceInLine) {
  PlatformPolicy policy;
  policy.requeue_to_tail = true;
  make_coordinator(policy);
  auto& only = add_agent("ws-a", "alpha");
  ASSERT_TRUE(coordinator_->submit(job("running", "alpha", 2.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(12));
  ASSERT_TRUE(coordinator_->submit(job("waiting", "alpha", 0.2)).is_ok());
  // Kill the running job: under tail-requeue the waiter goes first.
  only.kill_switch();
  env_.run_until(env_.now() + util::minutes(2));
  EXPECT_EQ(coordinator_->job("waiting")->phase, JobPhase::kRunning);
  EXPECT_EQ(coordinator_->job("running")->phase, JobPhase::kPending);
}

TEST_F(PolicySemanticsTest, HeadRequeueKeepsDisplacedJobsFirst) {
  PlatformPolicy policy;  // defaults: requeue_to_tail = false
  make_coordinator(policy);
  auto& only = add_agent("ws-a", "alpha");
  ASSERT_TRUE(coordinator_->submit(job("running", "alpha", 2.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(12));
  ASSERT_TRUE(coordinator_->submit(job("waiting", "alpha", 0.2)).is_ok());
  // Displace via emergency departure + return: the displaced job keeps its
  // place at the head of the queue and resumes first.
  only.depart_emergency();
  env_.run_until(env_.now() + util::minutes(2));
  only.rejoin();
  env_.run_until(env_.now() + util::minutes(2));
  EXPECT_EQ(coordinator_->job("running")->phase, JobPhase::kRunning);
  EXPECT_EQ(coordinator_->job("waiting")->phase, JobPhase::kPending);
}

}  // namespace
}  // namespace gpunion::sched
