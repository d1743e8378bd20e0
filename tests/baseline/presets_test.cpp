#include "baseline/presets.h"

#include <gtest/gtest.h>

#include <string>

#include "gpunion/platform.h"
#include "sched/strategies.h"
#include "workload/profiles.h"

namespace gpunion::baseline {
namespace {

TEST(PresetsTest, GpunionHasEverythingOn) {
  CampusConfig config = paper_campus();
  apply_preset(config, Preset::kGpunion);
  const auto& policy = config.coordinator.policy;
  EXPECT_TRUE(policy.cross_group_sharing);
  EXPECT_TRUE(policy.checkpoint_restore);
  EXPECT_TRUE(policy.auto_migration);
  EXPECT_TRUE(policy.migrate_back);
  EXPECT_TRUE(policy.owner_reclaim);
  EXPECT_FALSE(policy.requeue_to_tail);
}

TEST(PresetsTest, KubernetesTreatsVolatilityAsFailure) {
  CampusConfig config = paper_campus();
  apply_preset(config, Preset::kKubernetes);
  const auto& policy = config.coordinator.policy;
  EXPECT_TRUE(policy.cross_group_sharing);
  EXPECT_FALSE(policy.checkpoint_restore);
  EXPECT_TRUE(policy.auto_migration);
  EXPECT_FALSE(policy.migrate_back);
  EXPECT_FALSE(policy.owner_reclaim);
  EXPECT_DOUBLE_EQ(config.agent_defaults.departure_grace, 0.0);
}

TEST(PresetsTest, KubernetesCampusHandsOutNoTimeSliceSeats) {
  // Regression: the baselines switched off only fractional slots, so a
  // Kubernetes-like (1 GPU : 1 pod) campus of time-sliced workstations
  // under adaptive_sharing still packed low-duty sessions into seats.
  CampusConfig config;
  for (int i = 0; i < 2; ++i) {
    config.nodes.push_back(
        {hw::with_timeslicing(hw::workstation_3090("ts-" + std::to_string(i)),
                              4),
         "lab"});
  }
  config.coordinator.strategy = std::string(sched::kAdaptiveSharing);
  apply_preset(config, Preset::kKubernetes);
  EXPECT_FALSE(config.coordinator.policy.gpu_sharing);
  sim::Environment env(11);
  Platform platform(env, std::move(config));
  platform.start();
  env.run_until(5.0);
  const workload::JobSpec session =
      workload::make_interactive_session("sess", 1.0, "lab", env.now());
  ASSERT_LT(workload::resolved_duty_cycle(session), 0.6);  // seat-bound
  ASSERT_TRUE(platform.coordinator().submit(session).is_ok());
  env.run_until(env.now() + 60.0);
  const sched::JobRecord* record = platform.coordinator().job("sess");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, sched::JobPhase::kRunning);
  EXPECT_EQ(record->tenancy, hw::Tenancy::kWhole);
}

TEST(PresetsTest, SlurmRequeuesAtTail) {
  CampusConfig config = paper_campus();
  apply_preset(config, Preset::kSlurm);
  EXPECT_TRUE(config.coordinator.policy.requeue_to_tail);
  EXPECT_FALSE(config.coordinator.policy.checkpoint_restore);
}

TEST(PresetsTest, ManualIsSiloed) {
  CampusConfig config = paper_campus();
  apply_preset(config, Preset::kManual);
  EXPECT_FALSE(config.coordinator.policy.cross_group_sharing);
  EXPECT_FALSE(config.coordinator.policy.auto_migration);
}

TEST(PresetsTest, AdaptJobStripsCheckpointsForNonAlcPlatforms) {
  workload::JobSpec job;
  job.checkpoint_interval = 600.0;
  EXPECT_DOUBLE_EQ(adapt_job(job, Preset::kGpunion).checkpoint_interval,
                   600.0);
  EXPECT_DOUBLE_EQ(adapt_job(job, Preset::kManual).checkpoint_interval,
                   600.0);
  EXPECT_DOUBLE_EQ(adapt_job(job, Preset::kKubernetes).checkpoint_interval,
                   0.0);
  EXPECT_DOUBLE_EQ(adapt_job(job, Preset::kSlurm).checkpoint_interval, 0.0);
}

TEST(PresetsTest, Names) {
  EXPECT_EQ(preset_name(Preset::kGpunion), "GPUnion");
  EXPECT_EQ(preset_name(Preset::kKubernetes), "Kubernetes-like");
  EXPECT_EQ(preset_name(Preset::kSlurm), "Slurm-like");
  EXPECT_EQ(preset_name(Preset::kManual), "Manual");
}

}  // namespace
}  // namespace gpunion::baseline
