// Platform behaviour policy.
//
// GPUnion's mechanisms are expressed as independent switches so that the
// baselines of Table 1 are *configurations of the same engine* rather than
// separate code paths:
//
//   GPUnion            all switches on
//   Kubernetes-like    sharing on, but volatility treated as failure:
//                      no checkpoint restore, no graceful grace, no
//                      migrate-back, restart-from-scratch
//   Slurm-like         reservation semantics: no checkpoint restore,
//                      displaced jobs requeue at the tail
//   Manual             no cross-group sharing at all (per-lab silos)
//
// bench/table1_comparison replays one churn trace under each preset.
#pragma once

namespace gpunion::sched {

struct PlatformPolicy {
  /// Jobs may run on nodes owned by other groups.
  bool cross_group_sharing = true;
  /// Interrupted training resumes from its latest checkpoint (ALC, §3.5);
  /// off = restart from scratch.
  bool checkpoint_restore = true;
  /// Interrupted jobs are automatically requeued and redispatched.
  bool auto_migration = true;
  /// Displaced jobs return to their origin node when the provider rejoins.
  bool migrate_back = true;
  /// Owners evict guests from their own machines when they need them
  /// (kill-switch-driven reclaim).
  bool owner_reclaim = true;
  /// Displaced jobs keep their priority and requeue at the head (false) or
  /// lose their place and requeue at the tail (true; Slurm resubmission).
  bool requeue_to_tail = false;
  /// Shareable single-GPU jobs may take a seat of a shared GPU (strategy
  /// permitting): a spatially-partitioned fractional slot, or an
  /// nvshare-style time-slice seat whose full-memory tenants rotate
  /// exclusive residency per quantum.  Off = whole-device allocation only
  /// (the Kubernetes device-plugin 1:1 model).
  bool gpu_sharing = true;
};

/// GPUnion's default behaviour: everything on.
inline PlatformPolicy gpunion_policy() { return PlatformPolicy{}; }

}  // namespace gpunion::sched
