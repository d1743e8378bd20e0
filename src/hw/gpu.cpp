#include "hw/gpu.h"

#include <algorithm>
#include <cassert>

namespace gpunion::hw {

std::string_view tenancy_unit(Tenancy mode) {
  switch (mode) {
    case Tenancy::kWhole: return "gpu";
    case Tenancy::kFractional: return "slot";
    case Tenancy::kTimeslice: return "seat";
  }
  return "unknown";
}

std::string_view gpu_arch_name(GpuArch arch) {
  switch (arch) {
    case GpuArch::kRtx3090: return "RTX3090";
    case GpuArch::kRtx4090: return "RTX4090";
    case GpuArch::kA100: return "A100";
    case GpuArch::kA6000: return "A6000";
  }
  return "unknown";
}

const GpuSpec& gpu_spec(GpuArch arch) {
  static const GpuSpec kRtx3090{GpuArch::kRtx3090, "NVIDIA GeForce RTX 3090",
                                24.0, 8.6, 35.6};
  static const GpuSpec kRtx4090{GpuArch::kRtx4090, "NVIDIA GeForce RTX 4090",
                                24.0, 8.9, 82.6};
  static const GpuSpec kA100{GpuArch::kA100, "NVIDIA A100 80GB PCIe", 80.0,
                             8.0, 19.5};
  static const GpuSpec kA6000{GpuArch::kA6000, "NVIDIA RTX A6000", 48.0, 8.6,
                              38.7};
  switch (arch) {
    case GpuArch::kRtx3090: return kRtx3090;
    case GpuArch::kRtx4090: return kRtx4090;
    case GpuArch::kA100: return kA100;
    case GpuArch::kA6000: return kA6000;
  }
  return kRtx3090;
}

GpuDevice::GpuDevice(GpuArch arch, int index)
    : spec_(&gpu_spec(arch)), index_(index) {}

const std::string& GpuDevice::holder() const {
  static const std::string kNone;
  return holders_.empty() ? kNone : holders_.begin()->first;
}

void GpuDevice::refresh_aggregates() {
  memory_used_gb_ = 0;
  double util_sum = 0;
  for (const auto& [id, tenant] : holders_) {
    if (tenancy_ == Tenancy::kTimeslice && id != resident_) {
      continue;  // swapped out to host RAM
    }
    memory_used_gb_ += tenant.memory_gb;
    util_sum += tenant.utilization;
  }
  // Co-resident tenants cannot drive the device past saturation.
  utilization_ = std::min(1.0, util_sum);
}

double GpuDevice::tenant_memory_total_gb() const {
  double total = 0;
  for (const auto& [id, tenant] : holders_) total += tenant.memory_gb;
  return total;
}

util::Status GpuDevice::allocate(Tenancy mode, const std::string& workload_id,
                                 double memory_gb, double utilization) {
  if (allocated() && (mode == Tenancy::kWhole || tenancy_ != mode)) {
    return util::failed_precondition_error("GPU " + std::to_string(index_) +
                                           " already allocated");
  }
  if (holders_.contains(workload_id)) {
    return util::already_exists_error("workload already on this GPU");
  }
  // Time-sliced tenants swap out while another is resident, so each needs
  // only the device; other tenants share the VRAM left beside them.
  const double beside = mode == Tenancy::kTimeslice ? 0.0 : memory_used_gb_;
  if (beside + memory_gb > spec_->memory_gb) {
    return util::resource_exhausted_error("footprint exceeds VRAM on GPU " +
                                          std::to_string(index_));
  }
  if (utilization < 0 || utilization > 1.0) {
    return util::invalid_argument_error("utilization out of [0,1]");
  }
  tenancy_ = mode;
  holders_[workload_id] = Tenant{memory_gb, utilization};
  if (mode == Tenancy::kTimeslice && resident_.empty()) {
    resident_ = workload_id;
  }
  refresh_aggregates();
  return util::Status::ok();
}

util::Status GpuDevice::set_resident(const std::string& workload_id) {
  if (!held_as(Tenancy::kTimeslice)) {
    return util::failed_precondition_error("GPU not in time-slice mode");
  }
  if (!holders_.contains(workload_id)) {
    return util::not_found_error("workload not on this GPU");
  }
  resident_ = workload_id;
  refresh_aggregates();
  return util::Status::ok();
}

void GpuDevice::release() {
  holders_.clear();
  tenancy_ = Tenancy::kWhole;
  resident_.clear();
  refresh_aggregates();
}

bool GpuDevice::release_holder(const std::string& workload_id) {
  auto it = holders_.find(workload_id);
  if (it == holders_.end()) return false;
  holders_.erase(it);
  if (holders_.empty()) {
    tenancy_ = Tenancy::kWhole;
    resident_.clear();
  } else if (resident_ == workload_id) {
    resident_ = holders_.begin()->first;  // next tenant inherits residency
  }
  refresh_aggregates();
  return true;
}

}  // namespace gpunion::hw
