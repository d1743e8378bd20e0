#include "agent/timeslice.h"

#include <algorithm>

namespace gpunion::agent {

namespace {

/// Initial scheduler time quantum (nvshare defaults to ~30 s).
constexpr util::Duration kQuantum = 30.0;
/// Widening ceiling for thrash avoidance.
constexpr util::Duration kMaxQuantum = 240.0;
/// A rotation whose swap cost exceeds this fraction of the quantum is
/// thrashing: widen the quantum, or evict once already at kMaxQuantum.
constexpr double kThrashFraction = 0.5;

}  // namespace

GpuTimeSlicer::GpuTimeSlicer(sim::Environment& env, hw::NodeModel& node)
    : env_(env), node_(node) {}

GpuTimeSlicer::~GpuTimeSlicer() { clear(); }

double GpuTimeSlicer::swap_gbps() const {
  return std::max(0.1, node_.spec().host_swap_gbps);
}

void GpuTimeSlicer::add_tenant(int gpu_index, const std::string& job_id,
                               double working_set_gb) {
  Slice& slice = slices_[gpu_index];
  if (slice.quantum <= 0) slice.quantum = kQuantum;
  slice.tenants.push_back(Tenant{job_id, working_set_gb});
  // One tenant computes uninterrupted; the second arms the rotation.
  if (slice.tenants.size() == 2 && slice.tick_event == sim::kInvalidEvent) {
    arm_tick(gpu_index, slice);
  }
}

void GpuTimeSlicer::remove_tenant(int gpu_index, const std::string& job_id) {
  auto it = slices_.find(gpu_index);
  if (it == slices_.end()) return;
  Slice& slice = it->second;
  const auto pos =
      std::find_if(slice.tenants.begin(), slice.tenants.end(),
                   [&](const Tenant& t) { return t.job_id == job_id; });
  if (pos == slice.tenants.end()) return;
  const std::size_t index =
      static_cast<std::size_t>(pos - slice.tenants.begin());
  const bool was_resident = index == slice.cursor;
  slice.tenants.erase(pos);
  if (index < slice.cursor) --slice.cursor;
  if (slice.cursor >= slice.tenants.size()) slice.cursor = 0;

  if (slice.tenants.empty()) {
    if (slice.tick_event != sim::kInvalidEvent) env_.cancel(slice.tick_event);
    slices_.erase(it);
    return;
  }
  if (was_resident) {
    // The departed tenant's pages need no writeback: the successor pays
    // only its own swap-in before computing.
    const Tenant& incoming = slice.tenants[slice.cursor];
    const double cost = incoming.working_set_gb / swap_gbps();
    (void)node_.gpu(static_cast<std::size_t>(gpu_index))
        .set_resident(incoming.job_id);
    ++stats_.swaps;
    stats_.swap_seconds += cost;
    stats_.max_swap_per_quantum = std::max(stats_.max_swap_per_quantum, cost);
    if (hooks_.on_residency_change) {
      hooks_.on_residency_change(incoming.job_id, true, cost);
    }
  }
  if (slice.tenants.size() < 2 && slice.tick_event != sim::kInvalidEvent) {
    env_.cancel(slice.tick_event);
    slice.tick_event = sim::kInvalidEvent;
  }
}

void GpuTimeSlicer::clear() {
  for (auto& [index, slice] : slices_) {
    if (slice.tick_event != sim::kInvalidEvent) env_.cancel(slice.tick_event);
  }
  slices_.clear();
}

const std::string& GpuTimeSlicer::resident(int gpu_index) const {
  static const std::string kNone;
  auto it = slices_.find(gpu_index);
  if (it == slices_.end() || it->second.tenants.empty()) return kNone;
  return it->second.tenants[it->second.cursor].job_id;
}

util::Duration GpuTimeSlicer::quantum(int gpu_index) const {
  auto it = slices_.find(gpu_index);
  return it == slices_.end() ? kQuantum : it->second.quantum;
}

void GpuTimeSlicer::arm_tick(int gpu_index, Slice& slice) {
  slice.tick_event = env_.schedule_after(
      slice.quantum, [this, gpu_index] { tick(gpu_index); });
}

void GpuTimeSlicer::tick(int gpu_index) {
  auto it = slices_.find(gpu_index);
  if (it == slices_.end()) return;
  it->second.tick_event = sim::kInvalidEvent;

  // Thrash control before rotating: the candidate swap must fit within
  // kThrashFraction of the quantum.  Widen first (nvshare's TQ adaptation);
  // once at kMaxQuantum, evict the largest swapped-out working set — the
  // resident's pages are already on-device, so it is never the victim.
  while (it->second.tenants.size() >= 2) {
    Slice& slice = it->second;
    const Tenant& outgoing = slice.tenants[slice.cursor];
    const std::size_t next = (slice.cursor + 1) % slice.tenants.size();
    const double cost =
        (outgoing.working_set_gb + slice.tenants[next].working_set_gb) /
        swap_gbps();
    if (cost <= kThrashFraction * slice.quantum) break;
    if (slice.quantum < kMaxQuantum) {
      slice.quantum = std::min(kMaxQuantum, slice.quantum * 2.0);
      ++stats_.quantum_widenings;
      continue;
    }
    if (!hooks_.on_evict) break;  // no evictor wired: rotate regardless
    std::size_t victim = slice.cursor;
    for (std::size_t j = 0; j < slice.tenants.size(); ++j) {
      if (j == slice.cursor) continue;
      if (victim == slice.cursor || slice.tenants[j].working_set_gb >
                                        slice.tenants[victim].working_set_gb) {
        victim = j;
      }
    }
    ++stats_.thrash_evictions;
    const std::string victim_id = slice.tenants[victim].job_id;
    hooks_.on_evict(victim_id);  // must remove_tenant before returning
    it = slices_.find(gpu_index);  // eviction may have erased the slice
    if (it == slices_.end()) return;
  }

  Slice& slice = it->second;
  if (slice.tenants.size() < 2) return;  // evictions left a sole tenant

  const Tenant outgoing = slice.tenants[slice.cursor];
  slice.cursor = (slice.cursor + 1) % slice.tenants.size();
  const Tenant& incoming = slice.tenants[slice.cursor];
  const double cost =
      (outgoing.working_set_gb + incoming.working_set_gb) / swap_gbps();
  (void)node_.gpu(static_cast<std::size_t>(gpu_index))
      .set_resident(incoming.job_id);
  ++stats_.quanta;
  ++stats_.swaps;
  stats_.swap_seconds += cost;
  stats_.max_swap_per_quantum = std::max(stats_.max_swap_per_quantum, cost);
  if (hooks_.on_residency_change) {
    hooks_.on_residency_change(outgoing.job_id, false, cost);
    hooks_.on_residency_change(incoming.job_id, true, cost);
  }
  arm_tick(gpu_index, slice);
}

}  // namespace gpunion::agent
