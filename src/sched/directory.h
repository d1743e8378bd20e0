// Coordinator-side membership directory with an indexed cluster view.
//
// The scheduler's real-time view of the fleet (§3.2: "maintains a real-time
// view of available GPU resources across the campus network through periodic
// status updates from provider agents").  free_gpus / free_seats are the
// *scheduling* view: decremented optimistically at dispatch and corrected
// by dispatch results and heartbeats, so the coordinator never double-books
// capacity while a dispatch is in flight.
//
// ClusterView maintains secondary indexes (free-capacity buckets, per-group
// and per-capability sets, a seat set per shared mode) so the placement engine
// generates candidates in O(dirty + matches) instead of rescanning every
// node for every pending job on every pass.  Mutations mark nodes dirty;
// indexes are repaired lazily on the next query.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "db/database.h"
#include "hw/node_profile.h"
#include "hw/tenancy.h"
#include "util/time.h"

namespace gpunion::sched {

/// One directory entry: the node's advertised profile plus the
/// coordinator's live view of it.
struct NodeInfo : hw::NodeProfile {
  db::NodeStatus status = db::NodeStatus::kActive;
  bool accepting = true;
  int free_gpus = 0;          // fully-free whole GPUs
  hw::SeatCounts free_seats;  // per mode: free seats on GPUs open in it
  util::SimTime last_heartbeat = 0;
  std::uint64_t last_heartbeat_seq = 0;
  std::string token_hash;  // sha256 of the issued auth token
  /// Last raw token that verified against token_hash.  Heartbeat auth is on
  /// the coordinator actor's critical path; hashing every beat made it the
  /// hottest instruction there.  Tokens only change on (re)registration, so
  /// one string compare replaces the SHA-256 after the first verified beat
  /// — byte-equal input implies the same digest, accept/reject is unchanged.
  std::string verified_token;

  bool schedulable() const {
    return status == db::NodeStatus::kActive && accepting;
  }

  /// VRAM one tenant of shared `mode` may claim here: the per-tenant cap of
  /// a fractional slot, or the whole device for a time-sliced working set
  /// (the per-device oversubscription ceiling is the agent's to enforce).
  double tenant_memory_cap_gb(hw::Tenancy mode) const {
    return mode == hw::Tenancy::kFractional ? share_memory_cap_gb
                                            : gpu_memory_gb;
  }

  /// Shared `mode` is on here and has room for one more tenant: a free
  /// seat, or a fully-free GPU to open into the mode's seats.
  bool has_seat(hw::Tenancy mode) const {
    return seats_per_gpu[mode] > 1 && (free_seats[mode] > 0 || free_gpus > 0);
  }

  /// Takes one seat of shared `mode`: a free seat when there is one, else a
  /// fully-free GPU opened into the mode (its other seats become free).
  /// False when the mode is off here or nothing is free.
  bool take_seat(hw::Tenancy mode);
};

/// Whole-fleet capacity aggregate, cheap enough to compute per gossip tick.
/// Region gateways serialize this into their federation capacity digests,
/// so it must come from running counters (O(dirty) repair, no node rescans).
struct CapacitySummary {
  int nodes = 0;              // every directory entry, any status
  int schedulable_nodes = 0;  // kActive and accepting
  int total_gpus = 0;         // across all nodes, any status
  int free_gpus = 0;          // fully-free whole GPUs on schedulable nodes
  hw::SeatCounts free_seats;  // free seats per mode on schedulable nodes
  /// Hardware envelope: the best any single registered node offers
  /// (departed nodes included — hardware survives churn; recomputed when
  /// a re-registration shrinks a maximum).  Lets a federation gateway's
  /// ranking drop never-feasible regions — a job needing 4 GPUs on one
  /// node, 40 GB VRAM or CC 9.0 is not sent to a campus of 1-GPU 24 GB
  /// CC-8.6 workstations.
  int max_node_gpus = 0;
  double max_gpu_memory_gb = 0;
  double max_compute_capability = 0;
};

/// Secondary indexes over the directory, maintained incrementally via
/// dirty-node invalidation.  Candidate lists are deterministic
/// (machine-id order) for reproducible placement.
class ClusterView {
 public:
  explicit ClusterView(const std::map<std::string, NodeInfo>& nodes)
      : nodes_(nodes) {}

  /// Marks one node's index entries stale (re-indexed on the next query).
  void mark_dirty(const std::string& machine_id);

  /// Drops every index entry and running counter (coordinator crash: the
  /// node map is about to be emptied, so the pointer-keyed sets must go
  /// first).  Work counters (reindexed/examined) survive — they describe
  /// lifetime work, not current state.
  void clear();

  /// What one placement pass asks the indexes for.
  struct Query {
    hw::Tenancy mode = hw::Tenancy::kWhole;
    /// Whole: fully-free GPUs wanted on one node.
    int gpu_count = 1;
    /// Whole: VRAM per GPU; shared mode: the tenant's footprint in it.
    double memory_gb = 0;
    double min_compute_capability = 0;
    /// Non-null: only that group's nodes.
    const std::string* owner_group = nullptr;
  };

  /// Schedulable nodes that can host `query`: whole — at least gpu_count
  /// fully-free GPUs of at least memory_gb; shared mode — the mode on, the
  /// footprint within its per-tenant memory cap, and a free seat or a
  /// fully-free GPU to open into the mode.  The compute capability is met
  /// either way.  Seat-set nodes come first for a shared mode (packing
  /// onto open devices keeps whole GPUs free).
  std::vector<const NodeInfo*> candidates(const Query& query);

  /// Extra gating an existence probe applies on top of the index filters
  /// (the full placement predicate, including the degradation rule).
  using NodePredicate = std::function<bool(const NodeInfo&)>;

  /// Existence probe: the first node candidates() would list that also
  /// passes `pred`, or nullptr.  Stops examining on the first hit — O(1) on
  /// a fleet with free capacity instead of materializing the full
  /// candidate vector just to test emptiness (the gateway's admission /
  /// forward-scan path).
  const NodeInfo* first_candidate(const Query& query,
                                  const NodePredicate& pred);

  /// Nodes examined by candidate generation and existence probes since
  /// construction (the early-exit regression probe: an existence check on
  /// a fleet with free capacity must advance this by O(1), not O(nodes)).
  std::uint64_t candidates_examined() const { return candidates_examined_; }

  /// Fully-free whole GPUs across schedulable nodes (running counter; O(dirty)).
  int total_free_gpus();

  /// Schedulable-fleet aggregates from the running counters the indexes
  /// already maintain: O(dirty) repair, then O(1).  Node/GPU totals are
  /// filled in by Directory::capacity_summary().
  CapacitySummary summary();

  /// Nodes re-indexed since construction (observability for the
  /// scalability bench: work done per pass instead of full rescans).
  std::uint64_t reindexed_nodes() const { return reindexed_nodes_; }

 private:
  struct ByIdLess {
    bool operator()(const NodeInfo* a, const NodeInfo* b) const {
      return a->machine_id < b->machine_id;
    }
  };
  using NodeSet = std::set<const NodeInfo*, ByIdLess>;

  /// Index keys a node was filed under (needed for removal on change).
  /// `ptr` is stable: directory entries are never deallocated while indexed.
  struct IndexEntry {
    const NodeInfo* ptr = nullptr;
    int free_bucket = -1;  // -1: not in any free bucket
    hw::PerSharedMode<bool> in_seat_set;
    std::string group;
    double capability = 0;
    // Contributions to the capacity-summary counters (subtracted on
    // unindex, so the counters never need a rescan).
    int counted_free_gpus = 0;
    hw::SeatCounts counted_free_seats;
  };

  void refresh();
  void unindex(const std::string& machine_id);
  void index(const NodeInfo& node);
  /// The index walk behind candidates() and first_candidate(): visits the
  /// nodes passing the index filters of `query` in candidate order until
  /// `visit` returns true, and returns that node (nullptr when the walk
  /// ends).  One walk serves both, so enumeration and the probe agree by
  /// construction.
  template <typename Visit>
  const NodeInfo* walk(const Query& query, Visit&& visit);
  /// Whole-GPU query planner: true when the capability range admits fewer
  /// nodes than the free buckets.
  bool prefer_capability_walk(int gpu_count,
                              double min_compute_capability) const;

  const std::map<std::string, NodeInfo>& nodes_;
  // free whole GPUs -> schedulable nodes with exactly that many free
  std::map<int, NodeSet> free_buckets_;
  // per shared mode: schedulable nodes with a free seat on a GPU already
  // open in it
  hw::PerSharedMode<NodeSet> seat_nodes_;
  std::map<std::string, NodeSet> by_group_;       // schedulable only
  std::map<double, NodeSet> by_capability_;       // schedulable only
  std::map<std::string, IndexEntry> entries_;
  std::set<std::string> dirty_;
  std::uint64_t reindexed_nodes_ = 0;
  std::uint64_t candidates_examined_ = 0;
  // Running schedulable-fleet aggregates (see summary()).
  int sum_free_gpus_ = 0;
  hw::SeatCounts sum_free_seats_;
};

class Directory {
 public:
  Directory() : view_(nodes_) {}

  // The view indexes the node map by reference; pin the object.
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Inserts or updates; returns the stored entry.
  NodeInfo& upsert(NodeInfo info);

  /// Mutable lookup: the caller may change scheduling-relevant fields, so
  /// the node is marked dirty in the cluster view.
  NodeInfo* find(const std::string& machine_id);
  const NodeInfo* find(const std::string& machine_id) const;

  /// Nodes in kActive status that are accepting work.
  std::vector<const NodeInfo*> schedulable() const;
  /// All nodes, machine-id order.
  std::vector<const NodeInfo*> all() const;

  /// Adjusts the scheduling view of free whole GPUs (clamped to
  /// [0, gpu_count]).
  void reserve_gpus(const std::string& machine_id, int count);
  void release_gpus(const std::string& machine_id, int count);

  /// Takes one seat of shared `mode` (see NodeInfo::take_seat).  False
  /// when the node is unknown, the mode is off there, or nothing is free.
  bool reserve_seat(const std::string& machine_id, hw::Tenancy mode);
  /// Returns one seat of shared `mode` to the scheduling view.  A device
  /// emptying back into the whole-GPU pool is reconciled by the next
  /// heartbeat (the agent is ground truth).
  void release_seat(const std::string& machine_id, hw::Tenancy mode);

  /// Forgets every node (simulated coordinator crash; the in-memory view
  /// is rebuilt from the durable registry on recovery).  The cluster view
  /// is cleared first — its indexes hold pointers into the node map.
  void clear();

  std::size_t size() const { return nodes_.size(); }
  int total_gpus() const { return total_gpus_; }

  /// Whole-fleet capacity aggregate for federation gossip digests, from
  /// running counters: O(dirty) index repair, no node rescans.
  CapacitySummary capacity_summary();

  /// Indexed view for the placement engine.
  ClusterView& view() { return view_; }

 private:
  std::map<std::string, NodeInfo> nodes_;  // ordered for determinism
  ClusterView view_;
  int total_gpus_ = 0;  // maintained by upsert
  // Hardware envelope (see CapacitySummary).
  int max_node_gpus_ = 0;
  double max_gpu_memory_gb_ = 0;
  double max_compute_capability_ = 0;
};

}  // namespace gpunion::sched
