// Write-behind allocation ledger.
//
// The control plane's per-decision mutations (allocation open/close,
// pending-queue inserts, provenance) are absorbed into this append-only
// in-memory ledger instead of paying one synchronous database write each.  Pending entries are group-committed to
// their owning writer shards when either the size threshold is crossed
// (absorb() tells the caller) or the owner's flush timer fires.
//
// Semantics mirror a group-commit write-behind cache: the mutation itself
// is applied to the shared in-memory tables immediately — so every reader
// in the process (Coordinator, Directory consumers, RegionGateway) gets
// read-your-writes on ledgered-but-unflushed state — while the modeled
// durable write is deferred and charged to the shard at flush time, one
// batched commit per touched shard (the same accounting contract as
// SystemDatabase::touch_heartbeats).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/time.h"

namespace gpunion::db {

enum class LedgerOpKind {
  kEnqueue,  // pending-queue insert (submit / requeue).  Takes and removals
             // stay synchronous: their result is consumed immediately.
  kAllocationOpen,
  kAllocationClose,
  kProvenance,
};

std::string_view ledger_op_name(LedgerOpKind kind);

enum class FlushTrigger { kInterval, kThreshold, kExplicit };

/// One absorbed mutation: what happened, which shard owns the durable row,
/// and the job it belongs to (an allocation's row is owned by its node's
/// shard, but its group-commit span lands on the job's trace).
struct LedgerEntry {
  LedgerOpKind kind = LedgerOpKind::kEnqueue;
  std::size_t shard = 0;
  std::string key;  // job id
  std::uint64_t allocation_id = 0;  // allocation ops only
  util::SimTime recorded_at = 0;
};

struct LedgerStats {
  std::uint64_t absorbed = 0;         // entries ever appended
  std::uint64_t entries_flushed = 0;  // entries committed to shards
  std::uint64_t flushes = 0;
  std::uint64_t interval_flushes = 0;
  std::uint64_t threshold_flushes = 0;
  std::uint64_t explicit_flushes = 0;
  /// Per-shard group commits issued across all flushes (the modeled write
  /// ops the ledger actually pays, vs `absorbed` it would have paid).
  std::uint64_t shard_commits = 0;
  std::size_t max_pending = 0;  // high-water mark of the pending log
};

class WriteBehindLedger {
 public:
  explicit WriteBehindLedger(std::size_t flush_threshold)
      : flush_threshold_(flush_threshold) {}

  /// Appends one mutation.  Returns true when the append reached the flush
  /// threshold — the owner must flush (the ledger has no shard access of
  /// its own).
  bool absorb(LedgerEntry entry);

  std::size_t pending() const { return pending_.size(); }
  bool empty() const { return pending_.empty(); }
  const std::vector<LedgerEntry>& pending_entries() const { return pending_; }

  /// Group-commits the pending log: `commit(shard, entries)` is invoked
  /// once per shard that owns at least one pending entry (shard order),
  /// then the log is cleared.  Returns the number of entries flushed.
  std::size_t flush(
      FlushTrigger trigger,
      const std::function<void(std::size_t shard, std::size_t entries)>&
          commit);

  const LedgerStats& stats() const { return stats_; }

 private:
  std::size_t flush_threshold_;
  std::vector<LedgerEntry> pending_;
  LedgerStats stats_;
};

}  // namespace gpunion::db
