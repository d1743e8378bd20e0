#include "db/write_behind_ledger.h"

#include <algorithm>
#include <map>

namespace gpunion::db {

std::string_view ledger_op_name(LedgerOpKind kind) {
  switch (kind) {
    case LedgerOpKind::kEnqueue: return "enqueue";
    case LedgerOpKind::kAllocationOpen: return "allocation_open";
    case LedgerOpKind::kAllocationClose: return "allocation_close";
    case LedgerOpKind::kProvenance: return "provenance";
  }
  return "unknown";
}

bool WriteBehindLedger::absorb(LedgerEntry entry) {
  pending_.push_back(std::move(entry));
  ++stats_.absorbed;
  stats_.max_pending = std::max(stats_.max_pending, pending_.size());
  return pending_.size() >= flush_threshold_;
}

std::size_t WriteBehindLedger::flush(
    FlushTrigger trigger,
    const std::function<void(std::size_t shard, std::size_t entries)>&
        commit) {
  if (pending_.empty()) return 0;
  // Ordered: commits fire in shard order for deterministic accounting.
  std::map<std::size_t, std::size_t> per_shard;
  for (const LedgerEntry& entry : pending_) ++per_shard[entry.shard];
  for (const auto& [shard, entries] : per_shard) {
    commit(shard, entries);
    ++stats_.shard_commits;
  }
  const std::size_t flushed = pending_.size();
  pending_.clear();
  stats_.entries_flushed += flushed;
  ++stats_.flushes;
  switch (trigger) {
    case FlushTrigger::kInterval: ++stats_.interval_flushes; break;
    case FlushTrigger::kThreshold: ++stats_.threshold_flushes; break;
    case FlushTrigger::kExplicit: ++stats_.explicit_flushes; break;
  }
  return flushed;
}

}  // namespace gpunion::db
