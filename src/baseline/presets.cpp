#include "baseline/presets.h"

namespace gpunion::baseline {

std::string_view preset_name(Preset p) {
  switch (p) {
    case Preset::kGpunion: return "GPUnion";
    case Preset::kKubernetes: return "Kubernetes-like";
    case Preset::kSlurm: return "Slurm-like";
    case Preset::kManual: return "Manual";
  }
  return "unknown";
}

void apply_preset(CampusConfig& config, Preset preset) {
  sched::PlatformPolicy& policy = config.coordinator.policy;
  switch (preset) {
    case Preset::kGpunion:
      policy = sched::gpunion_policy();
      break;
    case Preset::kKubernetes:
      policy.cross_group_sharing = true;
      policy.checkpoint_restore = false;   // pods restart from scratch
      policy.auto_migration = true;        // reschedule is automatic
      policy.migrate_back = false;
      policy.owner_reclaim = false;        // no provider supremacy
      policy.requeue_to_tail = false;
      policy.gpu_sharing = false;          // device plugin: 1 GPU : 1 pod
      // No application-checkpoint grace on node drain.
      config.agent_defaults.departure_grace = 0.0;
      break;
    case Preset::kSlurm:
      policy.cross_group_sharing = true;
      policy.checkpoint_restore = false;   // reservation lost = work lost
      policy.auto_migration = true;        // --requeue
      policy.migrate_back = false;
      policy.owner_reclaim = false;
      policy.requeue_to_tail = true;       // resubmission loses the slot
      policy.gpu_sharing = false;          // reservations are whole devices
      config.agent_defaults.departure_grace = 0.0;
      break;
    case Preset::kManual:
      policy.cross_group_sharing = false;  // per-lab silos
      policy.checkpoint_restore = true;    // researchers keep their own ALC
      policy.auto_migration = false;       // humans restart by hand
      policy.migrate_back = false;
      policy.owner_reclaim = false;        // no guests to reclaim from
      policy.requeue_to_tail = true;
      policy.gpu_sharing = false;          // no sharing tooling at all
      break;
  }
}

workload::JobSpec adapt_job(workload::JobSpec job, Preset preset) {
  switch (preset) {
    case Preset::kGpunion:
    case Preset::kManual:
      return job;  // ALC checkpointing available
    case Preset::kKubernetes:
    case Preset::kSlurm:
      // No platform-integrated checkpointing: periodic ALC never reaches a
      // restore path, so the platforms neither pause for it nor restore.
      job.checkpoint_interval = 0;
      return job;
  }
  return job;
}

}  // namespace gpunion::baseline
