#include "hw/gpu.h"

#include <gtest/gtest.h>

namespace gpunion::hw {
namespace {

TEST(GpuSpecTest, CatalogMatchesDatasheets) {
  EXPECT_DOUBLE_EQ(gpu_spec(GpuArch::kRtx3090).memory_gb, 24.0);
  EXPECT_DOUBLE_EQ(gpu_spec(GpuArch::kRtx4090).compute_capability, 8.9);
  EXPECT_DOUBLE_EQ(gpu_spec(GpuArch::kA100).memory_gb, 80.0);
  EXPECT_DOUBLE_EQ(gpu_spec(GpuArch::kA6000).memory_gb, 48.0);
  // The 4090 is the fastest FP32 part in the fleet.
  EXPECT_GT(gpu_spec(GpuArch::kRtx4090).fp32_tflops,
            gpu_spec(GpuArch::kA100).fp32_tflops);
}

TEST(GpuDeviceTest, AllocateRelease) {
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  EXPECT_FALSE(gpu.allocated());
  ASSERT_TRUE(gpu.allocate(Tenancy::kWhole, "job-1", 8.0, 0.9).is_ok());
  EXPECT_TRUE(gpu.allocated());
  EXPECT_EQ(gpu.holder(), "job-1");
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 8.0);
  gpu.release();
  EXPECT_FALSE(gpu.allocated());
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 0.0);
}

TEST(GpuDeviceTest, AllocateRejectsOversizedFootprintAtRuntime) {
  // The VRAM-fit check must hold in release builds too (it used to be a
  // debug-only assert): a 30 GB footprint on a 24 GB 3090 is a checked
  // error, and the device stays free.
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  auto status = gpu.allocate(Tenancy::kWhole, "fat", 30.0, 0.9);
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_FALSE(gpu.allocated());
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 0.0);
  // Double allocation and bad utilization are checked the same way.
  ASSERT_TRUE(gpu.allocate(Tenancy::kWhole, "job", 8.0, 0.9).is_ok());
  EXPECT_EQ(gpu.allocate(Tenancy::kWhole, "again", 8.0, 0.9).code(),
            util::StatusCode::kFailedPrecondition);
  gpu.release();
  EXPECT_EQ(gpu.allocate(Tenancy::kWhole, "neg", 8.0, -0.5).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(GpuDeviceTest, TimesliceResidencyControlsAggregates) {
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  ASSERT_TRUE(gpu.allocate(Tenancy::kTimeslice, "a", 20.0, 0.9).is_ok());
  ASSERT_TRUE(gpu.allocate(Tenancy::kTimeslice, "b", 18.0, 0.8).is_ok());
  EXPECT_TRUE(gpu.held_as(Tenancy::kTimeslice));
  EXPECT_EQ(gpu.holder_count(), 2);
  // The first tenant is resident; only its working set is on-device even
  // though the total footprint oversubscribes VRAM.
  EXPECT_EQ(gpu.resident(), "a");
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 20.0);
  EXPECT_DOUBLE_EQ(gpu.tenant_memory_total_gb(), 38.0);
  ASSERT_TRUE(gpu.set_resident("b").is_ok());
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 18.0);
  EXPECT_DOUBLE_EQ(gpu.utilization(), 0.8);
  // Residency is handed to a surviving tenant when the resident leaves.
  EXPECT_TRUE(gpu.release_holder("b"));
  EXPECT_EQ(gpu.resident(), "a");
  EXPECT_TRUE(gpu.release_holder("a"));
  EXPECT_FALSE(gpu.held_as(Tenancy::kTimeslice));
  EXPECT_FALSE(gpu.allocated());
}

TEST(GpuDeviceTest, TimesliceModeExcludesOtherModes) {
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  ASSERT_TRUE(gpu.allocate(Tenancy::kTimeslice, "a", 16.0, 0.9).is_ok());
  EXPECT_EQ(gpu.allocate(Tenancy::kFractional, "s", 4.0, 0.5).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(gpu.allocate(Tenancy::kWhole, "w", 8.0, 0.9).code(),
            util::StatusCode::kFailedPrecondition);
  // A single working set still has to fit the device.
  EXPECT_EQ(gpu.allocate(Tenancy::kTimeslice, "huge", 30.0, 0.9).code(),
            util::StatusCode::kResourceExhausted);
  gpu.release();
  ASSERT_TRUE(gpu.allocate(Tenancy::kFractional, "s", 4.0, 0.5).is_ok());
  EXPECT_EQ(gpu.allocate(Tenancy::kTimeslice, "t", 8.0, 0.9).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(GpuArchTest, Names) {
  EXPECT_EQ(gpu_arch_name(GpuArch::kRtx3090), "RTX3090");
  EXPECT_EQ(gpu_arch_name(GpuArch::kA100), "A100");
}

}  // namespace
}  // namespace gpunion::hw
