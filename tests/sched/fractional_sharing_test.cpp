// Fractional GPU slots end to end: coordinator + real agents over the
// simulated network, packed_sharing strategy.  Covers slot packing,
// oversubscription denial, per-tenant memory-cap enforcement and
// migrate-back of a shared slot.
#include <gtest/gtest.h>

#include "agent/provider_agent.h"
#include "net/sim_network.h"
#include "sched/coordinator.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

class FractionalSharingTest : public ::testing::Test {
 protected:
  FractionalSharingTest() : env_(7), net_(env_, {}) {
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

  void make_coordinator() {
    CoordinatorConfig config;
    config.strategy = std::string(kPackedSharing);
    coordinator_ =
        std::make_unique<Coordinator>(env_, net_, database_, store_, config);
    coordinator_->start();
  }

  agent::ProviderAgent& add_agent(hw::NodeSpec spec,
                                  const std::string& group = "vision") {
    nodes_.push_back(std::make_unique<hw::NodeModel>(std::move(spec)));
    agent::AgentConfig config;
    config.owner_group = group;
    config.telemetry_interval = 1e9;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
    agents_.back()->join();
    env_.run_until(env_.now() + 1.0);
    return *agents_.back();
  }

  workload::JobSpec session(const std::string& id, double hours = 2.0) {
    return workload::make_interactive_session(id, hours, "theory", env_.now());
  }

  int running_on(const std::string& machine_id) const {
    int n = 0;
    for (const auto& [job_id, record] : coordinator_->jobs()) {
      if (record.phase == JobPhase::kRunning && record.node == machine_id) {
        ++n;
      }
    }
    return n;
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

TEST_F(FractionalSharingTest, SessionsPackOntoOneSharedGpu) {
  make_coordinator();
  auto& provider = add_agent(hw::workstation_3090("ws-0"));  // 1 GPU, 4 slots
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        coordinator_->submit(session("sess-" + std::to_string(i))).is_ok());
  }
  env_.run_until(env_.now() + 60.0);
  EXPECT_EQ(running_on(provider.machine_id()), 3);
  EXPECT_EQ(provider.running_jobs(), 3u);
  // All three are fractional tenants of the single physical GPU.
  EXPECT_EQ(nodes_[0]->free_gpu_count(), 0);
  EXPECT_EQ(nodes_[0]->free_seat_count(hw::Tenancy::kFractional), 1);
  for (int i = 0; i < 3; ++i) {
    const JobRecord* record =
        coordinator_->job("sess-" + std::to_string(i));
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->tenancy, hw::Tenancy::kFractional);
    const auto allocations =
        database_.allocations_for_job("sess-" + std::to_string(i));
    ASSERT_EQ(allocations.size(), 1u);
    EXPECT_DOUBLE_EQ(allocations[0].gpu_fraction, 0.25);
    EXPECT_TRUE(allocations[0].interactive);
  }
  // Scheduling view agrees after a heartbeat settles.
  const NodeInfo* node = coordinator_->directory().find(provider.machine_id());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->free_gpus, 0);
  EXPECT_EQ(node->free_seats[hw::Tenancy::kFractional], 1);
}

TEST_F(FractionalSharingTest, OversubscriptionDeniedUntilSlotFrees) {
  make_coordinator();
  auto& provider = add_agent(hw::workstation_3090("ws-0"));
  // Four short sessions fill the 4 slots; the fifth must wait.  Sessions
  // are 0.1 h so a slot frees before the fifth's queue patience expires.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        coordinator_->submit(session("sess-" + std::to_string(i), 0.1))
            .is_ok());
  }
  ASSERT_TRUE(coordinator_->submit(session("late", 0.1)).is_ok());
  env_.run_until(env_.now() + 60.0);
  EXPECT_EQ(running_on(provider.machine_id()), 4);
  EXPECT_EQ(coordinator_->job("late")->phase, JobPhase::kPending);
  // A tenant finishing frees its slot and admits the fifth session.
  env_.run_until(env_.now() + util::hours(0.15));
  EXPECT_EQ(coordinator_->job("late")->phase, JobPhase::kRunning);
  EXPECT_EQ(coordinator_->job("late")->tenancy, hw::Tenancy::kFractional);
}

TEST_F(FractionalSharingTest, MemoryCapForcesWholeGpuPlacement) {
  make_coordinator();
  add_agent(hw::workstation_3090("ws-0"));
  // 10 GB exceeds the 24/4 = 6 GB per-tenant cap: the session must take the
  // whole device even under packed_sharing.
  auto big = session("big-mem");
  big.requirements.gpu_memory_gb = 10.0;
  ASSERT_TRUE(coordinator_->submit(std::move(big)).is_ok());
  env_.run_until(env_.now() + 60.0);
  const JobRecord* record = coordinator_->job("big-mem");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_NE(record->tenancy, hw::Tenancy::kFractional);
  const auto allocations = database_.allocations_for_job("big-mem");
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_DOUBLE_EQ(allocations[0].gpu_fraction, 1.0);
  // The device is exclusively held: a regular session cannot share it.
  ASSERT_TRUE(coordinator_->submit(session("small")).is_ok());
  env_.run_until(env_.now() + 60.0);
  EXPECT_EQ(coordinator_->job("small")->phase, JobPhase::kPending);
}

TEST_F(FractionalSharingTest, SharedSlotMigratesBackAfterTemporaryLoss) {
  make_coordinator();
  auto& flaky = add_agent(hw::workstation_3090("ws-0"));
  add_agent(hw::workstation_3090("ws-1"));
  // A shareable training job: opts into a time-sliced slot.
  workload::JobSpec job = workload::make_training_job(
      "shared-train", workload::cnn_small(), 2.0, "nlp", env_.now());
  job.requirements.shareable = true;
  ASSERT_TRUE(coordinator_->submit(std::move(job)).is_ok());
  env_.run_until(env_.now() + 30.0);
  const JobRecord* record = coordinator_->job("shared-train");
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_EQ(record->tenancy, hw::Tenancy::kFractional);
  const std::string origin = record->node;
  env_.run_until(env_.now() + util::minutes(15));  // one checkpoint in

  agent::ProviderAgent* origin_agent =
      flaky.machine_id() == origin ? &flaky : agents_[1].get();
  agent::ProviderAgent* refuge_agent =
      flaky.machine_id() == origin ? agents_[1].get() : &flaky;
  coordinator_->set_cause_hint(origin_agent->machine_id(),
                               agent::DepartureKind::kTemporary);
  origin_agent->depart_emergency();
  env_.run_until(env_.now() + util::minutes(5));
  // Migrated to the refuge as a fractional tenant again.
  ASSERT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_EQ(record->node, refuge_agent->machine_id());
  EXPECT_EQ(record->tenancy, hw::Tenancy::kFractional);

  origin_agent->rejoin();
  env_.run_until(env_.now() + util::minutes(5));
  // Migrate-back landed the shared tenant on its origin slot.
  EXPECT_EQ(record->node, origin_agent->machine_id());
  EXPECT_EQ(record->migrate_backs, 1);
  EXPECT_EQ(record->tenancy, hw::Tenancy::kFractional);
  // The refuge's slot was returned.
  EXPECT_EQ(refuge_agent->running_jobs(), 0u);
  env_.run_until(env_.now() + 30.0);
  const NodeInfo* refuge_node =
      coordinator_->directory().find(refuge_agent->machine_id());
  ASSERT_NE(refuge_node, nullptr);
  EXPECT_EQ(refuge_node->free_gpus, 1);
  EXPECT_EQ(refuge_node->free_seats[hw::Tenancy::kFractional], 0);
}

}  // namespace
}  // namespace gpunion::sched
