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
  ASSERT_TRUE(gpu.allocate(Tenancy::kWhole, "job-1", 8.0, 0.9, 0.0).is_ok());
  EXPECT_TRUE(gpu.allocated());
  EXPECT_EQ(gpu.holder(), "job-1");
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 8.0);
  gpu.release(100.0);
  EXPECT_FALSE(gpu.allocated());
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 0.0);
}

TEST(GpuDeviceTest, AllocateRejectsOversizedFootprintAtRuntime) {
  // The VRAM-fit check must hold in release builds too (it used to be a
  // debug-only assert): a 30 GB footprint on a 24 GB 3090 is a checked
  // error, and the device stays free.
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  auto status = gpu.allocate(Tenancy::kWhole, "fat", 30.0, 0.9, 0.0);
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_FALSE(gpu.allocated());
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 0.0);
  // Double allocation and bad utilization are checked the same way.
  ASSERT_TRUE(gpu.allocate(Tenancy::kWhole, "job", 8.0, 0.9, 0.0).is_ok());
  EXPECT_EQ(gpu.allocate(Tenancy::kWhole, "again", 8.0, 0.9, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  gpu.release(0.0);
  EXPECT_EQ(gpu.allocate(Tenancy::kWhole, "neg", 8.0, -0.5, 0.0).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(GpuDeviceTest, TimesliceResidencyControlsAggregates) {
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  ASSERT_TRUE(gpu.allocate(Tenancy::kTimeslice, "a", 20.0, 0.9, 0.0).is_ok());
  ASSERT_TRUE(gpu.allocate(Tenancy::kTimeslice, "b", 18.0, 0.8, 0.0).is_ok());
  EXPECT_TRUE(gpu.held_as(Tenancy::kTimeslice));
  EXPECT_EQ(gpu.holder_count(), 2);
  // The first tenant is resident; only its working set is on-device even
  // though the total footprint oversubscribes VRAM.
  EXPECT_EQ(gpu.resident(), "a");
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 20.0);
  EXPECT_DOUBLE_EQ(gpu.tenant_memory_total_gb(), 38.0);
  ASSERT_TRUE(gpu.set_resident("b", 10.0).is_ok());
  EXPECT_DOUBLE_EQ(gpu.memory_used_gb(), 18.0);
  EXPECT_DOUBLE_EQ(gpu.utilization(), 0.8);
  // Residency is handed to a surviving tenant when the resident leaves.
  EXPECT_TRUE(gpu.release_holder("b", 20.0));
  EXPECT_EQ(gpu.resident(), "a");
  EXPECT_TRUE(gpu.release_holder("a", 30.0));
  EXPECT_FALSE(gpu.held_as(Tenancy::kTimeslice));
  EXPECT_FALSE(gpu.allocated());
}

TEST(GpuDeviceTest, TimesliceModeExcludesOtherModes) {
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  ASSERT_TRUE(gpu.allocate(Tenancy::kTimeslice, "a", 16.0, 0.9, 0.0).is_ok());
  EXPECT_EQ(gpu.allocate(Tenancy::kFractional, "s", 4.0, 0.5, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(gpu.allocate(Tenancy::kWhole, "w", 8.0, 0.9, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
  // A single working set still has to fit the device.
  EXPECT_EQ(gpu.allocate(Tenancy::kTimeslice, "huge", 30.0, 0.9, 0.0).code(),
            util::StatusCode::kResourceExhausted);
  gpu.release(0.0);
  ASSERT_TRUE(gpu.allocate(Tenancy::kFractional, "s", 4.0, 0.5, 0.0).is_ok());
  EXPECT_EQ(gpu.allocate(Tenancy::kTimeslice, "t", 8.0, 0.9, 0.0).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(GpuDeviceTest, IdlePowerAndLoadPower) {
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  EXPECT_DOUBLE_EQ(gpu.power_watts(), 25.0);
  ASSERT_TRUE(gpu.allocate(Tenancy::kWhole, "job", 4.0, 1.0, 0.0).is_ok());
  EXPECT_DOUBLE_EQ(gpu.power_watts(), 350.0);
}

TEST(GpuDeviceTest, TemperatureRisesUnderLoad) {
  GpuDevice gpu(GpuArch::kRtx4090, 0);
  const double idle_temp = gpu.temperature_c(0.0);
  EXPECT_NEAR(idle_temp, 36.0, 0.5);
  ASSERT_TRUE(gpu.allocate(Tenancy::kWhole, "job", 10.0, 1.0, 0.0).is_ok());
  const double shortly = gpu.temperature_c(10.0);
  const double later = gpu.temperature_c(600.0);
  EXPECT_GT(shortly, idle_temp);
  EXPECT_GT(later, shortly);
  EXPECT_NEAR(later, 78.0, 1.0);  // steady state at full load
}

TEST(GpuDeviceTest, TemperatureCoolsAfterRelease) {
  GpuDevice gpu(GpuArch::kRtx3090, 0);
  ASSERT_TRUE(gpu.allocate(Tenancy::kWhole, "job", 4.0, 1.0, 0.0).is_ok());
  const double hot = gpu.temperature_c(600.0);
  gpu.release(600.0);
  const double cooling = gpu.temperature_c(700.0);
  const double cold = gpu.temperature_c(2000.0);
  EXPECT_LT(cooling, hot);
  EXPECT_NEAR(cold, 36.0, 1.0);
}

TEST(GpuArchTest, Names) {
  EXPECT_EQ(gpu_arch_name(GpuArch::kRtx3090), "RTX3090");
  EXPECT_EQ(gpu_arch_name(GpuArch::kA100), "A100");
}

}  // namespace
}  // namespace gpunion::hw
