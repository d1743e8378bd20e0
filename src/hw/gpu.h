// GPU hardware catalog and device state.
//
// Models the fleet from the paper's deployment (§4): RTX 3090 workstations,
// an 8x RTX 4090 server, 2x A100 and 4x A6000 servers.  Specs carry the
// attributes the scheduler's compatibility constraints use — memory capacity
// and CUDA compute capability — plus the throughput figure that drives the
// workload model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "hw/tenancy.h"
#include "util/status.h"

namespace gpunion::hw {

enum class GpuArch { kRtx3090, kRtx4090, kA100, kA6000 };

std::string_view gpu_arch_name(GpuArch arch);

struct GpuSpec {
  GpuArch arch;
  std::string name;
  double memory_gb;            // device memory capacity
  double compute_capability;   // CUDA CC, e.g. 8.6
  double fp32_tflops;          // relative training throughput
};

/// Catalog entry for an architecture (same figures as vendor datasheets).
const GpuSpec& gpu_spec(GpuArch arch);

/// One physical GPU in a node.  Tracks the workloads occupying it, the VRAM
/// they use and the utilization they drive.
///
/// The tenants of a device share one Tenancy mode (nvshare-style sharing,
/// §3.3 / related work): a whole-device workload, spatially shared tenants
/// each within a VRAM budget, or time-sliced full-memory tenants that take
/// turns — exactly one is RESIDENT at a time, the rest live swapped out to
/// host RAM (nvshare's UVM oversubscription).  Modes never mix on one
/// device.
class GpuDevice {
 public:
  GpuDevice(GpuArch arch, int index);

  const GpuSpec& spec() const { return *spec_; }
  int index() const { return index_; }

  /// Busy in any mode (not free for a whole-device allocation).
  bool allocated() const { return !holders_.empty(); }
  /// True when tenants of `mode` hold the device.
  bool held_as(Tenancy mode) const { return allocated() && tenancy_ == mode; }
  /// Number of co-resident tenants (1 for a whole-device allocation).
  int holder_count() const { return static_cast<int>(holders_.size()); }
  /// First holder in id order (the sole holder of a whole device); empty
  /// when free.
  const std::string& holder() const;
  bool holds(const std::string& workload_id) const {
    return holders_.contains(workload_id);
  }

  /// Adds `workload_id` as a tenant of `mode` with a VRAM footprint of
  /// `memory_gb` (a time-sliced tenant's working set: its hot pages; the
  /// rest can stay swapped out).  A free device takes any mode; a held one
  /// only more tenants of its own shared mode.  The footprint must fit the
  /// VRAM left beside the other tenants, or for a time-sliced tenant the
  /// whole device (the others swap out); the first time-sliced tenant
  /// becomes resident.  Checked errors, not debug asserts, so release
  /// builds cannot silently oversubscribe when a caller skips the node
  /// model's pre-check.  Seat counts, per-tenant caps and the
  /// oversubscription ratio are the node model's to enforce.
  util::Status allocate(Tenancy mode, const std::string& workload_id,
                        double memory_gb, double utilization);

  /// Time-slice mode only: makes `workload_id` the resident tenant (the one
  /// whose pages are on-device and whose kernels run this quantum).
  util::Status set_resident(const std::string& workload_id);

  /// Resident tenant id in time-slice mode; empty otherwise or when free.
  const std::string& resident() const { return resident_; }

  /// Frees the device entirely.
  void release();

  /// Removes one tenant (of any mode); returns false when
  /// `workload_id` is not on this device.
  bool release_holder(const std::string& workload_id);

  /// VRAM in use.  In time-slice mode only the resident tenant's working
  /// set is on-device (the others are swapped out to host RAM).
  double memory_used_gb() const { return memory_used_gb_; }
  /// Sum of all tenants' footprints, resident or not — in time-slice mode
  /// this may exceed the device VRAM (that is the oversubscription).
  double tenant_memory_total_gb() const;
  double utilization() const { return utilization_; }

 private:
  void refresh_aggregates();

  struct Tenant {
    double memory_gb = 0;
    double utilization = 0;
  };

  const GpuSpec* spec_;
  int index_;
  std::map<std::string, Tenant> holders_;  // ordered for determinism
  Tenancy tenancy_ = Tenancy::kWhole;  // mode of the holders, if any
  std::string resident_;  // time-slice mode: the on-device tenant
  double memory_used_gb_ = 0;
  double utilization_ = 0;
};

}  // namespace gpunion::hw
