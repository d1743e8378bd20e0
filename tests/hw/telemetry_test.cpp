#include "hw/telemetry.h"

#include <gtest/gtest.h>

namespace gpunion::hw {
namespace {

TEST(TelemetryTest, SamplesEveryGpu) {
  NodeModel node(server_8x4090("srv"));
  NvmlSampler sampler(node, util::Rng(1));
  const NodeTelemetry t = sampler.sample(0.0);
  EXPECT_EQ(t.gpus.size(), 8u);
  EXPECT_DOUBLE_EQ(t.sampled_at, 0.0);
  for (const auto& gpu : t.gpus) {
    EXPECT_DOUBLE_EQ(gpu.memory_total_gb, 24.0);
    EXPECT_GE(gpu.utilization_pct, 0.0);
    EXPECT_LE(gpu.utilization_pct, 100.0);
  }
}

TEST(TelemetryTest, BusyGpuShowsUtilizationAndMemory) {
  NodeModel node(workstation_3090("ws"));
  ASSERT_TRUE(
      node.allocate(Tenancy::kWhole, {0}, "job", 12.0, 0.9, 0.0).is_ok());
  NvmlSampler sampler(node, util::Rng(2));
  const NodeTelemetry t = sampler.sample(10.0);
  ASSERT_EQ(t.gpus.size(), 1u);
  EXPECT_NEAR(t.gpus[0].utilization_pct, 90.0, 10.0);
  EXPECT_DOUBLE_EQ(t.gpus[0].memory_used_gb, 12.0);
  EXPECT_GT(t.gpus[0].power_watts, 200.0);
}

TEST(TelemetryTest, MeanUtilAcrossGpus) {
  NodeModel node(server_2xa100("srv"));
  ASSERT_TRUE(
      node.allocate(Tenancy::kWhole, {0}, "job", 40.0, 1.0, 0.0).is_ok());
  NvmlSampler sampler(node, util::Rng(3));
  const NodeTelemetry t = sampler.sample(1.0);
  // One of two GPUs at ~100%: mean near 50%.
  EXPECT_NEAR(t.mean_gpu_utilization(), 50.0, 8.0);
}

TEST(TelemetryTest, DeterministicGivenSeed) {
  NodeModel node(workstation_3090("ws"));
  NvmlSampler a(node, util::Rng(7));
  NvmlSampler b(node, util::Rng(7));
  EXPECT_DOUBLE_EQ(a.sample(5.0).gpus[0].temperature_c,
                   b.sample(5.0).gpus[0].temperature_c);
}

TEST(TelemetryTest, CpuLoadBounded) {
  NodeModel node(server_8x4090("srv"));
  NvmlSampler sampler(node, util::Rng(9));
  for (int i = 0; i < 50; ++i) {
    const NodeTelemetry t = sampler.sample(i);
    EXPECT_GE(t.cpu_load, 0.0);
    EXPECT_LE(t.cpu_load, 1.0);
  }
}

}  // namespace
}  // namespace gpunion::hw
