#include "hw/node.h"

#include <gtest/gtest.h>

namespace gpunion::hw {
namespace {

TEST(NodeModelTest, FleetBuilders) {
  NodeModel ws(workstation_3090("ws-0"));
  EXPECT_EQ(ws.gpu_count(), 1u);
  NodeModel big(server_8x4090("srv-0"));
  EXPECT_EQ(big.gpu_count(), 8u);
  NodeModel a100(server_2xa100("srv-1"));
  EXPECT_EQ(a100.gpu_count(), 2u);
  EXPECT_DOUBLE_EQ(a100.gpu(0).spec().memory_gb, 80.0);
  NodeModel a6000(server_4xa6000("srv-2"));
  EXPECT_EQ(a6000.gpu_count(), 4u);
}

TEST(NodeModelTest, FindGpusRespectsConstraints) {
  NodeModel node(server_2xa100("srv"));
  auto found = node.find_gpus(1, 40.0, 8.0);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size(), 1u);
  // A100 is CC 8.0; requiring 8.6 must fail.
  EXPECT_FALSE(node.find_gpus(1, 40.0, 8.6).has_value());
  // More memory than any device.
  EXPECT_FALSE(node.find_gpus(1, 200.0, 7.0).has_value());
  // More GPUs than the node has.
  EXPECT_FALSE(node.find_gpus(3, 10.0, 7.0).has_value());
}

TEST(NodeModelTest, AllocateReleaseCycle) {
  NodeModel node(server_8x4090("srv"));
  auto gpus = node.find_gpus(2, 10.0, 8.0);
  ASSERT_TRUE(gpus.has_value());
  ASSERT_TRUE(
      node.allocate(Tenancy::kWhole, *gpus, "job-1", 10.0, 0.9, 0.0).is_ok());
  EXPECT_EQ(node.free_gpu_count(), 6);
  EXPECT_DOUBLE_EQ(node.busy_fraction(), 0.25);
  EXPECT_EQ(node.release("job-1", 1.0), 2);
  EXPECT_EQ(node.free_gpu_count(), 8);
}

TEST(NodeModelTest, DoubleAllocateRejected) {
  NodeModel node(workstation_3090("ws"));
  ASSERT_TRUE(
      node.allocate(Tenancy::kWhole, {0}, "job-1", 8.0, 0.9, 0.0).is_ok());
  auto again = node.allocate(Tenancy::kWhole, {0}, "job-2", 8.0, 0.9, 0.0);
  EXPECT_EQ(again.code(), util::StatusCode::kFailedPrecondition);
}

TEST(NodeModelTest, AllocateValidatesIndices) {
  NodeModel node(workstation_3090("ws"));
  EXPECT_EQ(node.allocate(Tenancy::kWhole, {5}, "job", 8.0, 0.9, 0.0).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(node.allocate(Tenancy::kWhole, {}, "job", 8.0, 0.9, 0.0).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(NodeModelTest, AllocateValidatesMemory) {
  NodeModel node(workstation_3090("ws"));
  EXPECT_EQ(node.allocate(Tenancy::kWhole, {0}, "job", 48.0, 0.9, 0.0).code(),
            util::StatusCode::kResourceExhausted);
}

TEST(NodeModelTest, ReleaseUnknownWorkloadIsZero) {
  NodeModel node(workstation_3090("ws"));
  EXPECT_EQ(node.release("ghost", 0.0), 0);
}

TEST(NodeModelTest, FreeGpusListsIndices) {
  NodeModel node(server_4xa6000("srv"));
  ASSERT_TRUE(
      node.allocate(Tenancy::kWhole, {1, 2}, "job", 10.0, 0.5, 0.0).is_ok());
  EXPECT_EQ(node.free_gpus(), (std::vector<int>{0, 3}));
}

TEST(NodeModelTest, SharedSlotsPackOntoOneDevice) {
  NodeModel node(server_4xa6000("srv"));  // 48 GB, 4 slots -> 12 GB cap
  EXPECT_DOUBLE_EQ(node.share_memory_cap(0), 12.0);
  auto first = node.find_seat(Tenancy::kFractional, 8.0, 8.0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(node.allocate(Tenancy::kFractional, {*first}, "t-1", 8.0, 0.5,
                            0.0).is_ok());
  // The next tenant packs onto the same (most-occupied) device.
  auto second = node.find_seat(Tenancy::kFractional, 8.0, 8.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
  ASSERT_TRUE(node.allocate(Tenancy::kFractional, {*second}, "t-2", 8.0, 0.5,
                            0.0).is_ok());
  EXPECT_EQ(node.gpu(static_cast<std::size_t>(*first)).holder_count(), 2);
  // Whole-device pool shrank by one; shared slots opened.
  EXPECT_EQ(node.free_gpu_count(), 3);
  EXPECT_EQ(node.free_seat_count(Tenancy::kFractional), 2);
  // A shared device is not free for exclusive allocation.
  EXPECT_EQ(
      node.allocate(Tenancy::kWhole, {*first}, "whole", 10.0, 0.9, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  // Releasing both tenants returns the device to the whole pool.
  EXPECT_EQ(node.release("t-1", 1.0), 1);
  EXPECT_EQ(node.release("t-2", 1.0), 1);
  EXPECT_EQ(node.free_gpu_count(), 4);
  EXPECT_EQ(node.free_seat_count(Tenancy::kFractional), 0);
}

TEST(NodeModelTest, SharedSlotCountAndMemoryLimitsEnforced) {
  NodeSpec spec = workstation_3090("ws");  // 24 GB, 4 slots -> 6 GB cap
  NodeModel node(spec);
  // Per-tenant cap enforced.
  EXPECT_EQ(
      node.allocate(Tenancy::kFractional, {0}, "fat", 10.0, 0.5, 0.0).code(),
            util::StatusCode::kResourceExhausted);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        node.allocate(Tenancy::kFractional, {0}, "t-" + std::to_string(i), 6.0,
                      0.5, 0.0)
            .is_ok());
  }
  // Slot count exhausted: the fifth tenant is denied.
  EXPECT_EQ(
      node.allocate(Tenancy::kFractional, {0}, "t-5", 1.0, 0.5, 0.0).code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_FALSE(node.find_seat(Tenancy::kFractional, 1.0, 7.0).has_value());
  // Utilization saturates instead of exceeding 1.
  EXPECT_LE(node.gpu(0).utilization(), 1.0);
}

TEST(NodeModelTest, SharingDisabledBySpec) {
  NodeSpec spec = workstation_3090("ws");
  spec.share_slots_per_gpu = 1;
  NodeModel node(spec);
  EXPECT_FALSE(node.find_seat(Tenancy::kFractional, 4.0, 7.0).has_value());
  EXPECT_EQ(node.allocate(Tenancy::kFractional, {0}, "t", 4.0, 0.5, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(node.free_seat_count(Tenancy::kFractional), 0);
}

TEST(NodeModelTest, ExclusiveDeviceRejectsSharedTenant) {
  NodeModel node(workstation_3090("ws"));
  ASSERT_TRUE(
      node.allocate(Tenancy::kWhole, {0}, "whole", 8.0, 0.9, 0.0).is_ok());
  EXPECT_EQ(node.allocate(Tenancy::kFractional, {0}, "t", 4.0, 0.5, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_FALSE(node.find_seat(Tenancy::kFractional, 4.0, 7.0).has_value());
}

TEST(NodeModelTest, BusyFractionWeightsSharedSlots) {
  // Regression: a shared GPU with 1 of 4 occupied slots used to count as
  // 100% busy — exactly where sharing is supposed to show headroom.
  NodeModel node(server_4xa6000("srv"));  // 4 GPUs, 4 slots each
  ASSERT_TRUE(
      node.allocate(Tenancy::kFractional, {0}, "t-1", 8.0, 0.5, 0.0).is_ok());
  EXPECT_DOUBLE_EQ(node.busy_fraction(), 0.25 / 4.0);  // 1 slot of 16
  ASSERT_TRUE(
      node.allocate(Tenancy::kFractional, {0}, "t-2", 8.0, 0.5, 0.0).is_ok());
  EXPECT_DOUBLE_EQ(node.busy_fraction(), 0.5 / 4.0);
  // An exclusive device still counts as fully busy.
  ASSERT_TRUE(
      node.allocate(Tenancy::kWhole, {1}, "whole", 10.0, 0.9, 0.0).is_ok());
  EXPECT_DOUBLE_EQ(node.busy_fraction(), 1.5 / 4.0);
}

TEST(NodeModelTest, TimesliceSeatsPackAndHonourOversubRatio) {
  NodeSpec spec = server_4xa6000("srv");  // 48 GB devices
  spec.timeslice_tenants_per_gpu = 3;
  spec.timeslice_oversub_ratio = 2.0;  // up to 96 GB of working sets
  NodeModel node(spec);
  auto first = node.find_seat(Tenancy::kTimeslice, 40.0, 8.0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(node.allocate(Tenancy::kTimeslice, {*first}, "t-1", 40.0, 0.9,
                            0.0).is_ok());
  // The next tenant packs onto the same device.
  auto second = node.find_seat(Tenancy::kTimeslice, 40.0, 8.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
  ASSERT_TRUE(node.allocate(Tenancy::kTimeslice, {*second}, "t-2", 40.0, 0.9,
                            0.0).is_ok());
  EXPECT_EQ(node.free_gpu_count(), 3);
  EXPECT_EQ(node.free_seat_count(Tenancy::kTimeslice), 1);
  // 40 + 40 + 40 > 96: the ratio forces the third big tenant elsewhere.
  auto third = node.find_seat(Tenancy::kTimeslice, 40.0, 8.0);
  ASSERT_TRUE(third.has_value());
  EXPECT_NE(*third, *first);
  EXPECT_EQ(node.allocate(Tenancy::kTimeslice, {*first}, "t-3", 40.0, 0.9,
                          0.0).code(),
            util::StatusCode::kResourceExhausted);
  // A small working set still fits under the ratio on the packed device.
  ASSERT_TRUE(node.allocate(Tenancy::kTimeslice, {*first}, "t-4", 10.0, 0.9,
                            0.0).is_ok());
  EXPECT_EQ(node.free_seat_count(Tenancy::kTimeslice), 0);
  // A time-sliced device hosts neither spatial tenants nor exclusive jobs.
  EXPECT_EQ(
      node.allocate(Tenancy::kFractional, {*first}, "s", 4.0, 0.5, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      node.allocate(Tenancy::kWhole, {*first}, "whole", 10.0, 0.9, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(node.free_seat_count(Tenancy::kFractional), 0);
  // Busy fraction is residency-weighted: 1 of 4 devices has a resident.
  EXPECT_DOUBLE_EQ(node.busy_fraction(), 0.25);
}

TEST(NodeModelTest, TimesliceDisabledBySpecDefault) {
  NodeModel node(workstation_3090("ws"));
  EXPECT_FALSE(node.find_seat(Tenancy::kTimeslice, 8.0, 7.0).has_value());
  EXPECT_EQ(node.allocate(Tenancy::kTimeslice, {0}, "t", 8.0, 0.9, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(node.free_seat_count(Tenancy::kTimeslice), 0);
}

}  // namespace
}  // namespace gpunion::hw
