// Per-GPU time-quantum scheduler (nvshare mode).
//
// nvshare's core loop: several full-memory tenants share one device; the
// scheduler grants exclusive access to ONE of them per time quantum, and a
// tenant rotating in pays a swap cost — its working set (plus the outgoing
// tenant's writeback) crossing the host-RAM link.  A quantum that is short
// relative to the swap cost thrashes: the device spends its time moving
// pages instead of computing.  The slicer therefore
//
//   - rotates residency round-robin every quantum (deterministic order:
//     tenant arrival order per device);
//   - charges swap_cost = (outgoing_ws + incoming_ws) / host_swap_gbps at
//     each rotation, handed to the agent so progress accrual excludes it;
//   - starts every device at a 30 s quantum (nvshare's default), detects
//     thrashing (swap_cost > 0.5 x quantum) and first WIDENS the quantum
//     (doubling, up to 240 s — nvshare's TQ adaptation), then, if even the
//     widest quantum thrashes, EVICTS the largest swapped-out working set
//     via the eviction hook.
//
// The slicer owns no network or container state: it is a pure scheduling
// component the ProviderAgent embeds.  Ticks are ordinary simulation events
// and all containers (tenant lists, rotation order) are deterministic, so a
// seed replays bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hw/node.h"
#include "sim/environment.h"
#include "util/time.h"

namespace gpunion::agent {

struct TimesliceStats {
  std::uint64_t quanta = 0;           // completed residency rotations
  std::uint64_t swaps = 0;            // rotations that paid a swap cost
  double swap_seconds = 0;            // total modeled swap time
  std::uint64_t quantum_widenings = 0;
  std::uint64_t thrash_evictions = 0;
  double max_swap_per_quantum = 0;    // worst single-rotation swap cost
};

/// Callbacks into the owning agent.  Both run synchronously inside the
/// slicer's tick.
struct TimesliceHooks {
  /// `resident` flips for the outgoing (false) and incoming (true) tenant
  /// of a rotation; `swap_pause` is the swap cost the incoming tenant pays
  /// before computing again.
  std::function<void(const std::string& job_id, bool resident,
                     util::Duration swap_pause)>
      on_residency_change;
  /// Thrash eviction: the agent must remove the tenant (kill the job and
  /// call remove_tenant) before the hook returns.
  std::function<void(const std::string& job_id)> on_evict;
};

class GpuTimeSlicer {
 public:
  GpuTimeSlicer(sim::Environment& env, hw::NodeModel& node);
  ~GpuTimeSlicer();

  GpuTimeSlicer(const GpuTimeSlicer&) = delete;
  GpuTimeSlicer& operator=(const GpuTimeSlicer&) = delete;

  void set_hooks(TimesliceHooks hooks) { hooks_ = std::move(hooks); }

  /// Registers a tenant already bound to `gpu_index` by the node model.
  /// The first tenant of a device is resident immediately (no swap cost);
  /// the second arms the quantum tick.
  void add_tenant(int gpu_index, const std::string& job_id,
                  double working_set_gb);

  /// Removes a tenant (job completed / killed / evicted).  When the
  /// resident leaves, the next tenant rotates in immediately, paying only
  /// its own swap-in cost (the departed tenant's pages need no writeback).
  void remove_tenant(int gpu_index, const std::string& job_id);

  /// Drops all slices without touching devices (kill-switch, departures —
  /// the runtime already released the GPUs).
  void clear();

  /// Resident tenant of a device; empty when the device is not sliced.
  const std::string& resident(int gpu_index) const;
  /// Current (possibly widened) quantum of a device.
  util::Duration quantum(int gpu_index) const;
  const TimesliceStats& stats() const { return stats_; }

 private:
  struct Tenant {
    std::string job_id;
    double working_set_gb = 0;
  };
  struct Slice {
    std::vector<Tenant> tenants;  // arrival order = rotation order
    std::size_t cursor = 0;       // index of the resident tenant
    util::Duration quantum = 0;
    sim::EventId tick_event = sim::kInvalidEvent;
  };

  void tick(int gpu_index);
  void arm_tick(int gpu_index, Slice& slice);
  double swap_gbps() const;

  sim::Environment& env_;
  hw::NodeModel& node_;
  TimesliceHooks hooks_;
  std::map<int, Slice> slices_;  // ordered for determinism
  TimesliceStats stats_;
};

}  // namespace gpunion::agent
