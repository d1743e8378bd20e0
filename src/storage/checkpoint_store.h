// Campus checkpoint store.
//
// Manages per-job checkpoint chains across storage nodes:
//  - placement honours the user's preferred nodes, falling back to the
//    least-utilized node with space,
//  - a full snapshot every `full_every` checkpoints, incremental deltas in
//    between (delta size = dirty_fraction x state size),
//  - restore returns the latest intact checkpoint (integrity verified),
//  - garbage collection keeps the suffix of the chain needed for restore.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/checkpoint.h"
#include "storage/storage_node.h"
#include "util/status.h"

namespace gpunion::storage {

/// Keep at most this many checkpoints per job; older entries before the
/// previous full snapshot are collected.
inline constexpr int kKeepPerJob = 16;

struct CheckpointStoreConfig {
  /// A full snapshot every N checkpoints (1 = always full).
  int full_every = 8;
};

class CheckpointStore {
 public:
  // References returned by chain()/node() stay valid across other jobs'
  // writes (node-based maps); a job's own write may reallocate its chain.
  explicit CheckpointStore(CheckpointStoreConfig config = {});

  // Agents and the coordinator keep its address.
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Registers a storage destination.  Id must be unique.
  util::Status add_node(const std::string& id, std::uint64_t capacity_bytes);

  /// Declares the user's preferred destinations for a job, in order.
  void set_preference(const std::string& job_id,
                      std::vector<std::string> node_ids);

  /// Persists a checkpoint of `state_bytes` at training `progress`.
  /// `dirty_fraction` scales the incremental delta.  Returns the sealed
  /// record (including where it was placed and how many bytes were stored —
  /// the caller models the network transfer of `stored_bytes`).
  util::StatusOr<Checkpoint> write(const std::string& job_id,
                                   std::uint64_t state_bytes,
                                   double dirty_fraction, double progress,
                                   util::SimTime now);

  /// Latest intact checkpoint for the job; kNotFound when none exists.
  util::StatusOr<Checkpoint> latest(const std::string& job_id) const;

  /// Bytes that must move over the network to restore the job on a new
  /// node: the latest full snapshot plus subsequent deltas.
  util::StatusOr<std::uint64_t> restore_bytes(const std::string& job_id) const;

  /// Drops every checkpoint of a finished job and frees its space.
  void forget(const std::string& job_id);

  const std::vector<Checkpoint>& chain(const std::string& job_id) const;
  std::uint64_t total_stored_bytes() const;
  const StorageNode* node(const std::string& id) const;
  std::vector<std::string> node_ids() const;

 private:
  StorageNode* pick_node(const std::string& job_id, std::uint64_t bytes);
  void collect(const std::string& job_id);
  /// Re-files `node` in the utilization order after its usage changed.
  void reindex(const StorageNode& node);
  /// Frees `bytes` on the checkpoint's node and keeps the index current.
  void release_bytes(const Checkpoint& checkpoint);

  CheckpointStoreConfig config_;
  std::map<std::string, StorageNode> nodes_;  // ordered for determinism
  /// Fallback-placement order: least used-fraction first, id tiebreak.
  /// Maintained on every reserve/release so pick_node probes from the
  /// front instead of rescanning every storage node per write.
  std::set<std::pair<double, std::string>> by_utilization_;
  std::unordered_map<std::string, double> indexed_fraction_;
  std::unordered_map<std::string, std::vector<std::string>> preferences_;
  // std::map (not unordered_map): chain() hands out references that must
  // survive other jobs' inserts — node-based, no rehash relocation.
  std::map<std::string, std::vector<Checkpoint>> chains_;
};

}  // namespace gpunion::storage
