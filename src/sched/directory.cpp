#include "sched/directory.h"

#include <algorithm>

namespace gpunion::sched {

bool NodeInfo::take_seat(hw::Tenancy mode) {
  if (seats_per_gpu[mode] <= 1) return false;
  if (free_seats[mode] > 0) {
    --free_seats[mode];
    return true;
  }
  if (free_gpus > 0) {
    --free_gpus;
    free_seats[mode] += seats_per_gpu[mode] - 1;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// ClusterView
// ---------------------------------------------------------------------------

namespace {

/// Membership rule of a shared mode's seat set.
bool seat_listed(const NodeInfo& node, hw::Tenancy mode) {
  return node.free_seats[mode] > 0 && node.seats_per_gpu[mode] > 1;
}

/// The index filters of `query` (see ClusterView::candidates).
bool admits(const ClusterView::Query& query, const NodeInfo& node) {
  if (node.compute_capability < query.min_compute_capability) return false;
  if (query.mode == hw::Tenancy::kWhole) {
    return node.free_gpus >= query.gpu_count &&
           node.gpu_memory_gb >= query.memory_gb;
  }
  return node.has_seat(query.mode) &&
         query.memory_gb <= node.tenant_memory_cap_gb(query.mode);
}

}  // namespace

void ClusterView::mark_dirty(const std::string& machine_id) {
  dirty_.insert(machine_id);
}

void ClusterView::clear() {
  free_buckets_.clear();
  seat_nodes_ = {};
  by_group_.clear();
  by_capability_.clear();
  entries_.clear();
  dirty_.clear();
  sum_free_gpus_ = 0;
  sum_free_seats_ = {};
}

void ClusterView::refresh() {
  for (const auto& machine_id : dirty_) {
    unindex(machine_id);
    auto it = nodes_.find(machine_id);
    if (it != nodes_.end()) index(it->second);
    ++reindexed_nodes_;
  }
  dirty_.clear();
}

void ClusterView::unindex(const std::string& machine_id) {
  auto entry_it = entries_.find(machine_id);
  if (entry_it == entries_.end()) return;
  const IndexEntry& entry = entry_it->second;
  if (entry.free_bucket >= 0) {
    auto bucket = free_buckets_.find(entry.free_bucket);
    if (bucket != free_buckets_.end()) {
      bucket->second.erase(entry.ptr);
      if (bucket->second.empty()) free_buckets_.erase(bucket);
    }
  }
  sum_free_gpus_ -= entry.counted_free_gpus;
  for (const hw::Tenancy mode : hw::kSharedTenancies) {
    if (entry.in_seat_set[mode]) seat_nodes_[mode].erase(entry.ptr);
    sum_free_seats_[mode] -= entry.counted_free_seats[mode];
  }
  auto group = by_group_.find(entry.group);
  if (group != by_group_.end()) {
    group->second.erase(entry.ptr);
    if (group->second.empty()) by_group_.erase(group);
  }
  auto capability = by_capability_.find(entry.capability);
  if (capability != by_capability_.end()) {
    capability->second.erase(entry.ptr);
    if (capability->second.empty()) by_capability_.erase(capability);
  }
  entries_.erase(entry_it);
}

void ClusterView::index(const NodeInfo& node) {
  if (!node.schedulable()) return;  // unschedulable nodes stay unindexed
  IndexEntry entry;
  entry.ptr = &node;
  if (node.free_gpus > 0) {
    entry.free_bucket = node.free_gpus;
    free_buckets_[node.free_gpus].insert(&node);
  }
  entry.counted_free_gpus = node.free_gpus;
  sum_free_gpus_ += entry.counted_free_gpus;
  for (const hw::Tenancy mode : hw::kSharedTenancies) {
    if (seat_listed(node, mode)) {
      entry.in_seat_set[mode] = true;
      seat_nodes_[mode].insert(&node);
    }
    entry.counted_free_seats[mode] = node.free_seats[mode];
    sum_free_seats_[mode] += node.free_seats[mode];
  }
  entry.group = node.owner_group;
  by_group_[node.owner_group].insert(&node);
  entry.capability = node.compute_capability;
  by_capability_[node.compute_capability].insert(&node);
  entries_[node.machine_id] = std::move(entry);
}

template <typename Visit>
const NodeInfo* ClusterView::walk(const Query& query, Visit&& visit) {
  refresh();
  auto step = [&](const NodeInfo* node) {
    ++candidates_examined_;
    return admits(query, *node) && visit(*node);
  };
  if (query.owner_group != nullptr) {
    auto group = by_group_.find(*query.owner_group);
    if (group == by_group_.end()) return nullptr;
    for (const NodeInfo* node : group->second) {  // id-ordered already
      if (step(node)) return node;
    }
    return nullptr;
  }
  if (query.mode != hw::Tenancy::kWhole) {
    // Union of the mode's seat set and every free-capacity bucket.  A node
    // with both a free seat and a free GPU appears in both indexes; the
    // bucket pass skips seat-set members instead of building a merged set.
    for (const NodeInfo* node : seat_nodes_[query.mode]) {
      if (step(node)) return node;
    }
    for (const auto& [free, bucket] : free_buckets_) {
      for (const NodeInfo* node : bucket) {
        if (seat_listed(*node, query.mode)) continue;  // walked above
        if (step(node)) return node;
      }
    }
    return nullptr;
  }
  // Query planner: walk whichever index admits fewer nodes — the
  // free-capacity buckets (selective on a busy fleet) or the capability
  // range (selective for high-CC jobs on a mixed fleet).  Either way the
  // iteration is key-major, id-ordered within a key: deterministic for
  // identical directory state without a per-query sort.  A node mutated
  // through a cached Directory::find() pointer after the last refresh is
  // filed under stale keys, so two different walks could disagree on it;
  // serving enumeration and probe from this one walk keeps any_eligible()
  // from denying jobs place() could serve.
  if (prefer_capability_walk(query.gpu_count, query.min_compute_capability)) {
    for (auto it = by_capability_.lower_bound(query.min_compute_capability);
         it != by_capability_.end(); ++it) {
      for (const NodeInfo* node : it->second) {
        if (step(node)) return node;
      }
    }
    return nullptr;
  }
  for (auto it = free_buckets_.lower_bound(query.gpu_count);
       it != free_buckets_.end(); ++it) {
    for (const NodeInfo* node : it->second) {
      if (step(node)) return node;
    }
  }
  return nullptr;
}

std::vector<const NodeInfo*> ClusterView::candidates(const Query& query) {
  std::vector<const NodeInfo*> out;
  (void)walk(query, [&out](const NodeInfo& node) {
    out.push_back(&node);
    return false;
  });
  return out;
}

const NodeInfo* ClusterView::first_candidate(const Query& query,
                                             const NodePredicate& pred) {
  return walk(query, pred);
}

bool ClusterView::prefer_capability_walk(int gpu_count,
                                         double min_compute_capability) const {
  std::size_t free_count = 0;
  for (auto it = free_buckets_.lower_bound(gpu_count);
       it != free_buckets_.end(); ++it) {
    free_count += it->second.size();
  }
  std::size_t capability_count = 0;
  for (auto it = by_capability_.lower_bound(min_compute_capability);
       it != by_capability_.end(); ++it) {
    capability_count += it->second.size();
  }
  return capability_count < free_count;
}

int ClusterView::total_free_gpus() {
  refresh();
  return sum_free_gpus_;
}

CapacitySummary ClusterView::summary() {
  refresh();
  CapacitySummary out;
  out.schedulable_nodes = static_cast<int>(entries_.size());
  out.free_gpus = sum_free_gpus_;
  out.free_seats = sum_free_seats_;
  return out;
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

NodeInfo& Directory::upsert(NodeInfo info) {
  view_.mark_dirty(info.machine_id);
  total_gpus_ += info.gpu_count;
  bool may_shrink_envelope = false;
  if (auto existing = nodes_.find(info.machine_id); existing != nodes_.end()) {
    const NodeInfo& old = existing->second;
    total_gpus_ -= old.gpu_count;
    // Re-registration with smaller hardware may have been holding an
    // envelope maximum; rescan below (rare — hardware swaps, not churn).
    may_shrink_envelope =
        (old.gpu_count >= max_node_gpus_ && info.gpu_count < old.gpu_count) ||
        (old.gpu_memory_gb >= max_gpu_memory_gb_ &&
         info.gpu_memory_gb < old.gpu_memory_gb) ||
        (old.compute_capability >= max_compute_capability_ &&
         info.compute_capability < old.compute_capability);
  }
  auto [it, inserted] = nodes_.insert_or_assign(info.machine_id,
                                                std::move(info));
  if (may_shrink_envelope) {
    max_node_gpus_ = 0;
    max_gpu_memory_gb_ = 0;
    max_compute_capability_ = 0;
    for (const auto& [id, node] : nodes_) {
      max_node_gpus_ = std::max(max_node_gpus_, node.gpu_count);
      max_gpu_memory_gb_ = std::max(max_gpu_memory_gb_, node.gpu_memory_gb);
      max_compute_capability_ =
          std::max(max_compute_capability_, node.compute_capability);
    }
  } else {
    max_node_gpus_ = std::max(max_node_gpus_, it->second.gpu_count);
    max_gpu_memory_gb_ =
        std::max(max_gpu_memory_gb_, it->second.gpu_memory_gb);
    max_compute_capability_ =
        std::max(max_compute_capability_, it->second.compute_capability);
  }
  return it->second;
}

void Directory::clear() {
  view_.clear();  // before the node map: its indexes point into it
  nodes_.clear();
  total_gpus_ = 0;
  max_node_gpus_ = 0;
  max_gpu_memory_gb_ = 0;
  max_compute_capability_ = 0;
}

NodeInfo* Directory::find(const std::string& machine_id) {
  auto it = nodes_.find(machine_id);
  if (it == nodes_.end()) return nullptr;
  view_.mark_dirty(machine_id);  // caller may mutate scheduling fields
  return &it->second;
}

const NodeInfo* Directory::find(const std::string& machine_id) const {
  auto it = nodes_.find(machine_id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<const NodeInfo*> Directory::schedulable() const {
  std::vector<const NodeInfo*> out;
  for (const auto& [id, node] : nodes_) {
    if (node.schedulable()) out.push_back(&node);
  }
  return out;
}

std::vector<const NodeInfo*> Directory::all() const {
  std::vector<const NodeInfo*> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(&node);
  return out;
}

void Directory::reserve_gpus(const std::string& machine_id, int count) {
  if (NodeInfo* node = find(machine_id)) {
    node->free_gpus = std::clamp(node->free_gpus - count, 0, node->gpu_count);
  }
}

void Directory::release_gpus(const std::string& machine_id, int count) {
  if (NodeInfo* node = find(machine_id)) {
    node->free_gpus = std::clamp(node->free_gpus + count, 0, node->gpu_count);
  }
}

bool Directory::reserve_seat(const std::string& machine_id,
                             hw::Tenancy mode) {
  NodeInfo* node = find(machine_id);
  return node != nullptr && node->take_seat(mode);
}

void Directory::release_seat(const std::string& machine_id,
                             hw::Tenancy mode) {
  NodeInfo* node = find(machine_id);
  if (node == nullptr) return;
  const int seats = std::max(1, node->seats_per_gpu[mode]);
  const int seat_capacity = (node->gpu_count - node->free_gpus) * seats;
  node->free_seats[mode] =
      std::clamp(node->free_seats[mode] + 1, 0, seat_capacity);
}

CapacitySummary Directory::capacity_summary() {
  CapacitySummary out = view_.summary();
  out.nodes = static_cast<int>(nodes_.size());
  out.total_gpus = total_gpus_;
  out.max_node_gpus = max_node_gpus_;
  out.max_gpu_memory_gb = max_gpu_memory_gb_;
  out.max_compute_capability = max_compute_capability_;
  return out;
}

}  // namespace gpunion::sched
