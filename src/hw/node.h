// Provider node hardware model.
//
// A node is a provider-owned machine: one or more GPUs plus host resources.
// The NodeModel tracks per-GPU allocation so the provider agent can
// advertise free capacity and the container runtime can bind devices.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hw/gpu.h"
#include "util/status.h"

namespace gpunion::hw {

struct NodeSpec {
  std::string hostname;
  std::vector<GpuArch> gpus;
  int cpu_cores = 16;
  double ram_gb = 64.0;
  double disk_gb = 2000.0;
  double access_link_gbps = 1.0;
  /// Spatial share slots per GPU (1 = whole-device only).  A shared GPU
  /// hosts up to this many tenants; the platform policy and the placement
  /// strategy decide whether slots are actually used.
  int share_slots_per_gpu = 4;
  /// Per-tenant VRAM cap on a shared GPU; 0 = memory_gb / share_slots_per_gpu.
  double share_memory_cap_gb = 0;
  /// nvshare-style time-slice seats per GPU (<=1 = mode disabled).  A
  /// time-sliced GPU hosts up to this many FULL-memory tenants; exactly one
  /// is resident per scheduler quantum, the rest swap to host RAM.
  int timeslice_tenants_per_gpu = 0;
  /// Memory oversubscription bound: sum of tenant working sets on one
  /// time-sliced GPU may reach ratio x device VRAM.
  double timeslice_oversub_ratio = 2.0;
  /// Host RAM <-> device swap bandwidth (GB/s) paid at quantum boundaries.
  double host_swap_gbps = 12.0;
};

/// Convenience builders for the paper's fleet (§4).
NodeSpec workstation_3090(std::string hostname);
NodeSpec server_8x4090(std::string hostname);
NodeSpec server_2xa100(std::string hostname);
NodeSpec server_4xa6000(std::string hostname);

/// Returns `spec` with nvshare-style time-slicing enabled: up to
/// `tenants_per_gpu` full-memory tenants per GPU, one resident per quantum.
NodeSpec with_timeslicing(NodeSpec spec, int tenants_per_gpu,
                          double oversub_ratio = 2.0,
                          double host_swap_gbps = 12.0);

class NodeModel {
 public:
  explicit NodeModel(NodeSpec spec);

  const NodeSpec& spec() const { return spec_; }
  const std::string& hostname() const { return spec_.hostname; }

  std::size_t gpu_count() const { return gpus_.size(); }
  const GpuDevice& gpu(std::size_t index) const { return gpus_.at(index); }
  GpuDevice& gpu(std::size_t index) { return gpus_.at(index); }

  /// Indices of currently free GPUs.
  std::vector<int> free_gpus() const;
  int free_gpu_count() const;

  /// Finds `count` free GPUs with at least `min_memory_gb` VRAM and compute
  /// capability >= `min_compute_capability`; empty optional when impossible.
  std::optional<std::vector<int>> find_gpus(int count, double min_memory_gb,
                                            double min_compute_capability) const;

  /// Per-tenant VRAM budget on a shared GPU of this node.
  double share_memory_cap(std::size_t gpu_index) const;

  /// Seats one GPU opens into in `mode`: 1 for a whole device, else the
  /// spec's setting for the shared mode (<= 1: the mode is off).
  int seats_per_gpu(Tenancy mode) const;

  /// Finds one GPU able to host a tenant of shared `mode` with a footprint
  /// of `memory_gb` (a time-sliced tenant's working set): the mode on, the
  /// GPU free or already in `mode` with a seat left, the compute capability
  /// met and the mode's capacity rule honoured (see seat_fits).  Prefers
  /// the most-occupied GPU (pack tenants together, keep whole devices
  /// free); empty optional when impossible.
  std::optional<int> find_seat(Tenancy mode, double memory_gb,
                               double min_compute_capability) const;

  /// Binds `workload_id` as a tenant of `mode`: whole devices at every
  /// index, or one seat of a shared mode on exactly one GPU (see
  /// find_seat).
  util::Status allocate(Tenancy mode, const std::vector<int>& indices,
                        const std::string& workload_id, double memory_gb,
                        double utilization);

  /// Releases every GPU (or seat) held by `workload_id`; returns how many
  /// devices the workload vacated.
  int release(const std::string& workload_id);

  /// Free seats on GPUs already open in shared `mode`.  Fully-free GPUs are
  /// advertised via free_gpu_count().
  int free_seat_count(Tenancy mode) const;

  /// Aggregate busy fraction, the utilization figure reported in Fig. 2.
  /// Per-GPU occupancy is weighted: an exclusive device counts 1.0, a
  /// spatially shared device counts holders/slots, a time-sliced device
  /// counts 1.0 only while a tenant is resident, a free device 0.
  double busy_fraction() const;

 private:
  /// The capacity rule of shared `mode` for one more tenant of `memory_gb`
  /// on `gpu`: a fractional tenant within the per-tenant cap and the VRAM
  /// left; a time-sliced working set within the device's VRAM, with all
  /// working sets on it within the oversubscription ratio.
  bool seat_fits(const GpuDevice& gpu, Tenancy mode, double memory_gb) const;

  NodeSpec spec_;
  std::vector<GpuDevice> gpus_;
};

}  // namespace gpunion::hw
