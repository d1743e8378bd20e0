#include "storage/checkpoint_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gpunion::storage {

CheckpointStore::CheckpointStore(CheckpointStoreConfig config)
    : config_(config) {
  assert(config_.full_every >= 1);
  assert(config_.keep_per_job >= 1);
}

util::Status CheckpointStore::add_node(const std::string& id,
                                       std::uint64_t capacity_bytes) {
  if (nodes_.contains(id)) {
    return util::already_exists_error("storage node " + id);
  }
  const auto& node = nodes_.emplace(id, StorageNode(id, capacity_bytes))
                         .first->second;
  reindex(node);
  return util::Status();
}

void CheckpointStore::reindex(const StorageNode& node) {
  const double fraction =
      node.capacity_bytes() == 0
          ? 1.0
          : static_cast<double>(node.used_bytes()) /
                static_cast<double>(node.capacity_bytes());
  auto it = indexed_fraction_.find(node.id());
  if (it != indexed_fraction_.end()) {
    if (it->second == fraction) return;
    by_utilization_.erase({it->second, node.id()});
    it->second = fraction;
  } else {
    indexed_fraction_.emplace(node.id(), fraction);
  }
  by_utilization_.insert({fraction, node.id()});
}

void CheckpointStore::release_bytes(const Checkpoint& checkpoint) {
  auto it = nodes_.find(checkpoint.storage_node);
  if (it == nodes_.end()) return;
  it->second.release(checkpoint.stored_bytes);
  reindex(it->second);
}

void CheckpointStore::set_preference(const std::string& job_id,
                                     std::vector<std::string> node_ids) {
  preferences_[job_id] = std::move(node_ids);
}

StorageNode* CheckpointStore::pick_node(const std::string& job_id,
                                        std::uint64_t bytes) {
  // User-designated destinations first (§3.2).
  auto pref_it = preferences_.find(job_id);
  if (pref_it != preferences_.end()) {
    for (const auto& id : pref_it->second) {
      auto it = nodes_.find(id);
      if (it != nodes_.end() && it->second.free_bytes() >= bytes) {
        return &it->second;
      }
    }
  }
  // Fallback: least-utilized node with space, probed through the
  // utilization order instead of a linear scan over every storage node.
  // The least-utilized node usually has the most free space, so the walk
  // almost always stops at the first entry; a long walk only happens when
  // small near-empty nodes front-run large near-full ones.  Determinism
  // matches the old scan: lowest fraction wins, id breaks ties.
  for (const auto& [fraction, id] : by_utilization_) {
    auto it = nodes_.find(id);
    if (it != nodes_.end() && it->second.free_bytes() >= bytes) {
      return &it->second;
    }
  }
  return nullptr;
}

util::StatusOr<Checkpoint> CheckpointStore::write(const std::string& job_id,
                                                  std::uint64_t state_bytes,
                                                  double dirty_fraction,
                                                  double progress,
                                                  util::SimTime now) {
  if (state_bytes == 0) {
    return util::invalid_argument_error("checkpoint of empty state");
  }
  dirty_fraction = std::clamp(dirty_fraction, 0.0, 1.0);

  auto& chain = chains_[job_id];
  const std::uint64_t seq = chain.empty() ? 0 : chain.back().seq + 1;
  const bool full = chain.empty() ||
                    (seq % static_cast<std::uint64_t>(config_.full_every)) == 0;

  Checkpoint c;
  c.job_id = job_id;
  c.seq = seq;
  c.kind = full ? CheckpointKind::kFull : CheckpointKind::kIncremental;
  c.state_bytes = state_bytes;
  // Incremental deltas still carry metadata (~64 KiB) on top of dirty pages.
  constexpr std::uint64_t kMetadataBytes = 64 * 1024;
  c.stored_bytes =
      full ? state_bytes
           : static_cast<std::uint64_t>(
                 std::llround(static_cast<double>(state_bytes) *
                              dirty_fraction)) +
                 kMetadataBytes;
  c.progress = std::clamp(progress, 0.0, 1.0);
  c.created_at = now;

  StorageNode* dest = pick_node(job_id, c.stored_bytes);
  if (dest == nullptr) {
    return util::resource_exhausted_error(
        "no storage node can hold checkpoint for " + job_id);
  }
  GPUNION_RETURN_IF_ERROR(dest->reserve(c.stored_bytes));
  reindex(*dest);
  c.storage_node = dest->id();

  chain.push_back(seal_checkpoint(c));
  collect(job_id);
  return chain.back();
}

util::StatusOr<Checkpoint> CheckpointStore::latest(
    const std::string& job_id) const {
  auto it = chains_.find(job_id);
  if (it == chains_.end() || it->second.empty()) {
    return util::not_found_error("no checkpoint for job " + job_id);
  }
  // Walk back to the newest intact record; a corrupt tail falls back to the
  // previous entry (resilience against partial writes during departure).
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (checkpoint_intact(*rit)) return *rit;
  }
  return util::not_found_error("all checkpoints corrupt for job " + job_id);
}

util::StatusOr<std::uint64_t> CheckpointStore::restore_bytes(
    const std::string& job_id) const {
  auto it = chains_.find(job_id);
  if (it == chains_.end() || it->second.empty()) {
    return util::not_found_error("no checkpoint for job " + job_id);
  }
  const auto& chain = it->second;
  // Find the latest full snapshot, then add all deltas after it.
  std::size_t base = chain.size();
  for (std::size_t i = chain.size(); i-- > 0;) {
    if (chain[i].kind == CheckpointKind::kFull) {
      base = i;
      break;
    }
  }
  if (base == chain.size()) {
    return util::internal_error("chain for " + job_id +
                                " has no full snapshot");
  }
  std::uint64_t bytes = 0;
  for (std::size_t i = base; i < chain.size(); ++i) {
    bytes += chain[i].stored_bytes;
  }
  return bytes;
}

void CheckpointStore::collect(const std::string& job_id) {
  auto it = chains_.find(job_id);
  if (it == chains_.end()) return;
  auto& chain = it->second;
  if (static_cast<int>(chain.size()) <= config_.keep_per_job) return;

  // Never drop the chain needed to restore: keep from the latest full
  // snapshot that still fits the budget.
  std::size_t cut = chain.size() - static_cast<std::size_t>(config_.keep_per_job);
  while (cut > 0 && chain[cut].kind != CheckpointKind::kFull) --cut;
  for (std::size_t i = 0; i < cut; ++i) {
    release_bytes(chain[i]);
  }
  chain.erase(chain.begin(), chain.begin() + static_cast<std::ptrdiff_t>(cut));
}

void CheckpointStore::forget(const std::string& job_id) {
  auto it = chains_.find(job_id);
  if (it == chains_.end()) return;
  for (const auto& c : it->second) {
    release_bytes(c);
  }
  chains_.erase(it);
  preferences_.erase(job_id);
}

const std::vector<Checkpoint>& CheckpointStore::chain(
    const std::string& job_id) const {
  static const std::vector<Checkpoint> kEmpty;
  auto it = chains_.find(job_id);
  return it == chains_.end() ? kEmpty : it->second;
}

std::uint64_t CheckpointStore::total_stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [id, node] : nodes_) total += node.used_bytes();
  return total;
}

const StorageNode* CheckpointStore::node(const std::string& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<std::string> CheckpointStore::node_ids() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

}  // namespace gpunion::storage
