#include "sched/strategies.h"

#include <gtest/gtest.h>

#include "sched/placement_engine.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

NodeInfo make_node(const std::string& id, int gpus, int free, double mem,
                   double cc, const std::string& group = "g") {
  NodeInfo info;
  info.machine_id = id;
  info.owner_group = group;
  info.gpu_count = gpus;
  info.free_gpus = free;
  info.gpu_memory_gb = mem;
  info.compute_capability = cc;
  info.gpu_tflops = 35.6;
  info.status = db::NodeStatus::kActive;
  info.accepting = true;
  return info;
}

workload::JobSpec job(double mem = 8.0, double cc = 7.0, int gpus = 1) {
  workload::JobSpec spec = workload::make_training_job(
      "j", workload::cnn_small(), 2.0, "vision", 0.0);
  spec.requirements.gpu_memory_gb = mem;
  spec.requirements.min_compute_capability = cc;
  spec.requirements.gpu_count = gpus;
  return spec;
}

std::unique_ptr<PlacementStrategy> make(std::string_view name) {
  auto strategy =
      PlacementStrategyFactory::instance().create(std::string(name));
  EXPECT_NE(strategy, nullptr) << name;
  return strategy;
}

TEST(FactoryTest, BuiltInsRegistered) {
  const auto names = PlacementStrategyFactory::instance().names();
  for (auto expected : {kRoundRobin, kLeastLoaded, kBestFit,
                        kReliabilityAware, kPackedSharing}) {
    bool found = false;
    for (const auto& name : names) {
      if (name == expected) found = true;
    }
    EXPECT_TRUE(found) << expected;
    auto strategy = make(expected);
    EXPECT_EQ(strategy->name(), expected);
  }
  EXPECT_EQ(PlacementStrategyFactory::instance().create("no_such_policy"),
            nullptr);
}

TEST(FactoryTest, ExternalStrategyRegistersWithoutCoordinatorChanges) {
  class AlwaysFirst : public PlacementStrategy {
   public:
    std::string_view name() const override { return "always_first"; }
    const NodeInfo* select(const std::vector<const NodeInfo*>& candidates,
                           const workload::JobSpec&, const PlacementContext&,
                           hw::Tenancy) override {
      return candidates.empty() ? nullptr : candidates.front();
    }
  };
  PlacementStrategyFactory::instance().register_strategy(
      "always_first", [] { return std::make_unique<AlwaysFirst>(); });
  auto strategy = make("always_first");
  EXPECT_EQ(strategy->name(), "always_first");
}

TEST(EligibilityTest, CapacityAndCompatibility) {
  ReliabilityPredictor reliability;
  const auto spec = job(30.0, 8.0, 1);
  // Plenty of VRAM.
  EXPECT_TRUE(node_eligible(make_node("a", 2, 2, 80.0, 8.0), spec, true,
                            reliability, 0.0, false));
  // VRAM too small.
  EXPECT_FALSE(node_eligible(make_node("b", 2, 2, 24.0, 8.6), spec, true,
                             reliability, 0.0, false));
  // Compute capability too low.
  EXPECT_FALSE(node_eligible(make_node("c", 2, 2, 80.0, 7.0), spec, true,
                             reliability, 0.0, false));
  // No free GPU.
  EXPECT_FALSE(node_eligible(make_node("d", 2, 0, 80.0, 8.0), spec, true,
                             reliability, 0.0, false));
}

TEST(EligibilityTest, CrossGroupSwitch) {
  ReliabilityPredictor reliability;
  const auto spec = job();  // owner_group = vision
  const auto other = make_node("a", 1, 1, 24.0, 8.6, "nlp");
  EXPECT_TRUE(node_eligible(other, spec, /*cross_group=*/true, reliability,
                            0.0, false));
  EXPECT_FALSE(node_eligible(other, spec, /*cross_group=*/false, reliability,
                             0.0, false));
  const auto own = make_node("b", 1, 1, 24.0, 8.6, "vision");
  EXPECT_TRUE(node_eligible(own, spec, /*cross_group=*/false, reliability,
                            0.0, false));
}

TEST(EligibilityTest, DegradationKeepsLongJobsOffFlakyNodes) {
  ReliabilityPredictor reliability;
  reliability.record_departure("flaky", 0.0);
  reliability.record_departure("flaky", 0.0);
  reliability.record_departure("flaky", 0.0);  // score 0.25 -> ~3.8 h cap
  auto spec = job();
  spec.reference_duration = util::hours(20);
  const auto flaky = make_node("flaky", 1, 1, 24.0, 8.6);
  EXPECT_FALSE(node_eligible(flaky, spec, true, reliability, 0.0,
                             /*enforce_degradation=*/true));
  EXPECT_TRUE(node_eligible(flaky, spec, true, reliability, 0.0,
                            /*enforce_degradation=*/false));
  // Short job is fine even on the flaky node.
  auto short_spec = job();
  short_spec.reference_duration = util::hours(1);
  EXPECT_TRUE(node_eligible(flaky, short_spec, true, reliability, 0.0, true));
}

TEST(EligibilityTest, SlotEligibility) {
  auto session = workload::make_interactive_session("s", 1.0, "vision", 0.0);
  NodeInfo node = make_node("a", 1, 1, 24.0, 8.6);
  node.seats_per_gpu[hw::Tenancy::kFractional] = 4;
  node.share_memory_cap_gb = 8.0;
  EXPECT_TRUE(seat_eligible(node, session, hw::Tenancy::kFractional, true));
  // Sharing disabled on the node.
  NodeInfo unshared = node;
  unshared.seats_per_gpu[hw::Tenancy::kFractional] = 1;
  EXPECT_FALSE(
      seat_eligible(unshared, session, hw::Tenancy::kFractional, true));
  // Memory above the per-tenant cap.
  auto big = session;
  big.requirements.gpu_memory_gb = 12.0;
  EXPECT_FALSE(seat_eligible(node, big, hw::Tenancy::kFractional, true));
  // Nothing free at all.
  NodeInfo full = node;
  full.free_gpus = 0;
  full.free_seats[hw::Tenancy::kFractional] = 0;
  EXPECT_FALSE(seat_eligible(full, session, hw::Tenancy::kFractional, true));
  // Free slot on a shared GPU suffices even with no whole GPU free.
  full.free_seats[hw::Tenancy::kFractional] = 2;
  EXPECT_TRUE(seat_eligible(full, session, hw::Tenancy::kFractional, true));
  // Whole-GPU (non-shareable) jobs never take slots.
  EXPECT_FALSE(seat_eligible(node, job(), hw::Tenancy::kFractional, true));
}

TEST(StrategiesTest, RoundRobinRotatesDeterministically) {
  auto selector = make(kRoundRobin);
  auto twin = make(kRoundRobin);
  const auto a = make_node("a", 1, 1, 24, 8.6);
  const auto b = make_node("b", 1, 1, 24, 8.6);
  const auto c = make_node("c", 1, 1, 24, 8.6);
  std::vector<const NodeInfo*> candidates = {&a, &b, &c};
  const auto spec = job();
  const PlacementContext context{nullptr, 0.0};
  for (auto expected : {"a", "b", "c", "a"}) {
    EXPECT_EQ(selector->select(candidates, spec, context,
                               hw::Tenancy::kWhole)->machine_id,
              expected);
    // A fresh instance fed the same state produces the same sequence.
    EXPECT_EQ(twin->select(candidates, spec, context,
                           hw::Tenancy::kWhole)->machine_id,
              expected);
  }
}

TEST(StrategiesTest, LeastLoadedPicksEmptiestNode) {
  auto selector = make(kLeastLoaded);
  const auto busy = make_node("busy", 8, 1, 24, 8.6);
  const auto idle = make_node("idle", 8, 7, 24, 8.6);
  std::vector<const NodeInfo*> candidates = {&busy, &idle};
  const PlacementContext context{nullptr, 0.0};
  EXPECT_EQ(selector->select(candidates, job(), context,
                             hw::Tenancy::kWhole)->machine_id,
            "idle");
}

TEST(StrategiesTest, BestFitPrefersTightestVram) {
  auto selector = make(kBestFit);
  const auto a100 = make_node("a100", 2, 2, 80, 8.0);
  const auto ws = make_node("ws", 1, 1, 24, 8.6);
  std::vector<const NodeInfo*> candidates = {&a100, &ws};
  const PlacementContext context{nullptr, 0.0};
  // An 8 GB job should land on the 24 GB card, preserving the A100.
  EXPECT_EQ(selector->select(candidates, job(8.0), context,
                             hw::Tenancy::kWhole)->machine_id,
            "ws");
}

TEST(StrategiesTest, ReliabilityAwarePrefersSteadyNode) {
  auto selector = make(kReliabilityAware);
  EXPECT_TRUE(selector->enforce_degradation());
  ReliabilityPredictor reliability;
  reliability.record_departure("flaky", 0.0);
  const auto flaky = make_node("flaky", 1, 1, 24, 8.6);
  const auto steady = make_node("steady", 1, 1, 24, 8.6);
  std::vector<const NodeInfo*> candidates = {&flaky, &steady};
  const PlacementContext context{&reliability, 0.0};
  EXPECT_EQ(selector->select(candidates, job(), context,
                             hw::Tenancy::kWhole)->machine_id,
            "steady");
}

TEST(StrategiesTest, PackedSharingPacksTightestSharedGpu) {
  auto selector = make(kPackedSharing);
  auto session = workload::make_interactive_session("s", 1.0, "vision", 0.0);
  EXPECT_TRUE(selector->wants(hw::Tenancy::kFractional, session));
  EXPECT_FALSE(selector->wants(hw::Tenancy::kFractional, job()));

  NodeInfo fresh = make_node("fresh", 2, 2, 24, 8.6);
  fresh.seats_per_gpu[hw::Tenancy::kFractional] = 4;
  fresh.share_memory_cap_gb = 6.0;
  NodeInfo tight = make_node("tight", 2, 0, 24, 8.6);
  tight.seats_per_gpu[hw::Tenancy::kFractional] = 4;
  tight.share_memory_cap_gb = 6.0;
  // One slot left on a shared GPU.
  tight.free_seats[hw::Tenancy::kFractional] = 1;
  NodeInfo loose = make_node("loose", 2, 0, 24, 8.6);
  loose.seats_per_gpu[hw::Tenancy::kFractional] = 4;
  loose.share_memory_cap_gb = 6.0;
  loose.free_seats[hw::Tenancy::kFractional] = 3;  // freshly opened shared GPU
  std::vector<const NodeInfo*> candidates = {&fresh, &loose, &tight};
  const PlacementContext context{nullptr, 0.0};
  // Tightest shared GPU first: keep whole devices free.
  EXPECT_EQ(selector->select(candidates, session, context,
                             hw::Tenancy::kFractional)->machine_id,
            "tight");
  // With no partially-filled shared GPU anywhere, open one best-fit.
  std::vector<const NodeInfo*> only_fresh = {&fresh};
  EXPECT_EQ(
      selector->select(only_fresh, session, context,
                       hw::Tenancy::kFractional)->machine_id,
      "fresh");
  // Whole-GPU pass behaves like best_fit.
  const auto a100 = make_node("a100", 2, 2, 80, 8.0);
  const auto ws = make_node("ws", 1, 1, 24, 8.6);
  std::vector<const NodeInfo*> whole = {&a100, &ws};
  EXPECT_EQ(selector->select(whole, job(8.0), context,
                             hw::Tenancy::kWhole)->machine_id,
            "ws");
}

TEST(StrategiesTest, EmptyCandidatesReturnNull) {
  const PlacementContext context{nullptr, 0.0};
  for (auto name : {kRoundRobin, kLeastLoaded, kBestFit, kReliabilityAware,
                    kPackedSharing}) {
    auto selector = make(name);
    EXPECT_EQ(selector->select({}, job(), context, hw::Tenancy::kWhole),
              nullptr) << name;
  }
}

TEST(StrategiesTest, SingleCallDeterminismAcrossInstances) {
  // Every stateless strategy must pick the same node for the same
  // candidate set, whichever instance runs it.
  const auto a = make_node("a", 4, 2, 24, 8.6);
  const auto b = make_node("b", 8, 5, 48, 8.6);
  const auto c = make_node("c", 1, 1, 24, 8.9);
  std::vector<const NodeInfo*> candidates = {&a, &b, &c};
  ReliabilityPredictor reliability;
  reliability.record_departure("b", 0.0);
  const PlacementContext context{&reliability, 100.0};
  for (auto name : {kLeastLoaded, kBestFit, kReliabilityAware,
                    kPackedSharing}) {
    auto first = make(name);
    auto second = make(name);
    const NodeInfo* pick = first->select(candidates, job(), context,
                                         hw::Tenancy::kWhole);
    ASSERT_NE(pick, nullptr) << name;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(
          second->select(candidates, job(), context, hw::Tenancy::kWhole), pick)
          << name;
    }
  }
}

}  // namespace
}  // namespace gpunion::sched
