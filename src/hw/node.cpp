#include "hw/node.h"

#include <algorithm>
#include <cassert>

namespace gpunion::hw {

NodeSpec workstation_3090(std::string hostname) {
  return NodeSpec{std::move(hostname), {GpuArch::kRtx3090}, 16, 64.0, 2000.0,
                  1.0};
}

NodeSpec server_8x4090(std::string hostname) {
  return NodeSpec{std::move(hostname),
                  std::vector<GpuArch>(8, GpuArch::kRtx4090), 64, 512.0,
                  8000.0, 10.0};
}

NodeSpec server_2xa100(std::string hostname) {
  return NodeSpec{std::move(hostname),
                  std::vector<GpuArch>(2, GpuArch::kA100), 32, 256.0, 4000.0,
                  10.0};
}

NodeSpec server_4xa6000(std::string hostname) {
  return NodeSpec{std::move(hostname),
                  std::vector<GpuArch>(4, GpuArch::kA6000), 48, 384.0, 4000.0,
                  10.0};
}

NodeSpec with_timeslicing(NodeSpec spec, int tenants_per_gpu,
                          double oversub_ratio, double host_swap_gbps) {
  spec.timeslice_tenants_per_gpu = tenants_per_gpu;
  spec.timeslice_oversub_ratio = oversub_ratio;
  spec.host_swap_gbps = host_swap_gbps;
  return spec;
}

NodeModel::NodeModel(NodeSpec spec) : spec_(std::move(spec)) {
  gpus_.reserve(spec_.gpus.size());
  for (std::size_t i = 0; i < spec_.gpus.size(); ++i) {
    gpus_.emplace_back(spec_.gpus[i], static_cast<int>(i));
  }
}

std::vector<int> NodeModel::free_gpus() const {
  std::vector<int> out;
  for (const auto& gpu : gpus_) {
    if (!gpu.allocated()) out.push_back(gpu.index());
  }
  return out;
}

int NodeModel::free_gpu_count() const {
  int n = 0;
  for (const auto& gpu : gpus_) {
    if (!gpu.allocated()) ++n;
  }
  return n;
}

std::optional<std::vector<int>> NodeModel::find_gpus(
    int count, double min_memory_gb, double min_compute_capability) const {
  std::vector<int> picked;
  for (const auto& gpu : gpus_) {
    if (gpu.allocated()) continue;
    if (gpu.spec().memory_gb < min_memory_gb) continue;
    if (gpu.spec().compute_capability < min_compute_capability) continue;
    picked.push_back(gpu.index());
    if (static_cast<int>(picked.size()) == count) return picked;
  }
  return std::nullopt;
}

double NodeModel::share_memory_cap(std::size_t gpu_index) const {
  if (spec_.share_memory_cap_gb > 0) return spec_.share_memory_cap_gb;
  const int slots = std::max(1, spec_.share_slots_per_gpu);
  return gpus_.at(gpu_index).spec().memory_gb / slots;
}

int NodeModel::seats_per_gpu(Tenancy mode) const {
  switch (mode) {
    case Tenancy::kWhole: return 1;
    case Tenancy::kFractional: return spec_.share_slots_per_gpu;
    case Tenancy::kTimeslice: return spec_.timeslice_tenants_per_gpu;
  }
  return 1;
}

bool NodeModel::seat_fits(const GpuDevice& gpu, Tenancy mode,
                          double memory_gb) const {
  const double vram = gpu.spec().memory_gb;
  if (mode == Tenancy::kFractional) {
    return memory_gb <=
               share_memory_cap(static_cast<std::size_t>(gpu.index())) &&
           gpu.memory_used_gb() + memory_gb <= vram;
  }
  return memory_gb <= vram && gpu.tenant_memory_total_gb() + memory_gb <=
                                  spec_.timeslice_oversub_ratio * vram;
}

std::optional<int> NodeModel::find_seat(Tenancy mode, double memory_gb,
                                        double min_compute_capability) const {
  const int seats = seats_per_gpu(mode);
  if (seats <= 1) return std::nullopt;
  const GpuDevice* best = nullptr;
  for (const auto& gpu : gpus_) {
    if (gpu.allocated() && !gpu.held_as(mode)) continue;
    if (gpu.holder_count() >= seats) continue;
    if (gpu.spec().compute_capability < min_compute_capability) continue;
    if (!seat_fits(gpu, mode, memory_gb)) continue;
    // Pack: most tenants first so whole devices stay free; index ties.
    if (best == nullptr || gpu.holder_count() > best->holder_count()) {
      best = &gpu;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->index();
}

util::Status NodeModel::allocate(Tenancy mode, const std::vector<int>& indices,
                                 const std::string& workload_id,
                                 double memory_gb, double utilization,
                                 util::SimTime now) {
  if (indices.empty()) {
    return util::invalid_argument_error("no GPU indices given");
  }
  auto out_of_range = [this](int idx) {
    return idx < 0 || static_cast<std::size_t>(idx) >= gpus_.size();
  };
  if (mode == Tenancy::kWhole) {
    for (int idx : indices) {
      if (out_of_range(idx)) {
        return util::invalid_argument_error("GPU index out of range");
      }
      const auto& gpu = gpus_[static_cast<std::size_t>(idx)];
      if (gpu.allocated()) {
        return util::failed_precondition_error(
            "GPU " + std::to_string(idx) + " on " + spec_.hostname +
            " already allocated to " + gpu.holder());
      }
      if (memory_gb > gpu.spec().memory_gb) {
        return util::resource_exhausted_error(
            "footprint exceeds VRAM of GPU " + std::to_string(idx));
      }
    }
    for (int idx : indices) {
      GPUNION_RETURN_IF_ERROR(gpus_[static_cast<std::size_t>(idx)].allocate(
          mode, workload_id, memory_gb, utilization, now));
    }
    return util::Status();
  }
  if (indices.size() != 1) {
    return util::invalid_argument_error(
        "a shared tenant binds exactly one GPU");
  }
  if (out_of_range(indices[0])) {
    return util::invalid_argument_error("GPU index out of range");
  }
  const int seats = seats_per_gpu(mode);
  if (seats <= 1) {
    return util::failed_precondition_error(
        std::string(tenancy_unit(mode)) + " sharing disabled on " +
        spec_.hostname);
  }
  GpuDevice& gpu = gpus_[static_cast<std::size_t>(indices[0])];
  auto where = [&] {
    return "GPU " + std::to_string(indices[0]) + " on " + spec_.hostname;
  };
  if (gpu.allocated() && !gpu.held_as(mode)) {
    return util::failed_precondition_error(where() + " is held by " +
                                           gpu.holder() + " in another mode");
  }
  if (gpu.holder_count() >= seats) {
    return util::resource_exhausted_error(where() + " has no free " +
                                          std::string(tenancy_unit(mode)));
  }
  if (!seat_fits(gpu, mode, memory_gb)) {
    return util::resource_exhausted_error(
        "footprint exceeds the " + std::string(tenancy_unit(mode)) +
        " capacity of " + where());
  }
  return gpu.allocate(mode, workload_id, memory_gb, utilization, now);
}

int NodeModel::release(const std::string& workload_id, util::SimTime now) {
  int released = 0;
  for (auto& gpu : gpus_) {
    if (gpu.release_holder(workload_id, now)) ++released;
  }
  return released;
}

int NodeModel::free_seat_count(Tenancy mode) const {
  const int seats = seats_per_gpu(mode);
  if (seats <= 1) return 0;
  int free = 0;
  for (const auto& gpu : gpus_) {
    if (!gpu.held_as(mode)) continue;
    free += std::max(0, seats - gpu.holder_count());
  }
  return free;
}

double NodeModel::busy_fraction() const {
  if (gpus_.empty()) return 0.0;
  double busy = 0;
  const int slots = std::max(1, spec_.share_slots_per_gpu);
  for (const auto& gpu : gpus_) {
    if (gpu.held_as(Tenancy::kWhole)) {
      busy += 1.0;
    } else if (gpu.held_as(Tenancy::kTimeslice)) {
      busy += gpu.resident().empty() ? 0.0 : 1.0;
    } else if (gpu.holder_count() > 0) {
      // A shared GPU with 1 of N occupied slots is 1/N busy, not 100%.
      busy += std::min(1.0, static_cast<double>(gpu.holder_count()) / slots);
    }
  }
  return busy / static_cast<double>(gpus_.size());
}

}  // namespace gpunion::hw
