// Write-ahead log + durable table image for the sharded database.
//
// PR 4's WriteBehindLedger made acknowledged decisions cheap by deferring
// their durable shard writes to group commits — and thereby made the
// coordinator the one component that could not die: a crash between ack
// and flush lost every absorbed mutation.  This WAL closes that hole with
// the classic ordering
//
//     append(WAL record)  ->  ack caller  ->  ...  ->  group commit
//
// Every mutation appends a full-payload WalRecord (the in-sim durable log
// object) BEFORE the caller sees the ack.  The durable state of each shard
// is modeled by a TableImage that advances only when that shard commits:
// synchronous ops advance their shard at call time (the round trip IS the
// write), write-behind ops advance at flush, and records a shard has
// applied are truncated from the log.  Recovery is then mechanical: start
// from the image, replay WAL-ahead-of-shard records in global sequence
// order — skipping anything the shard already applied, so replay is
// idempotent — and the result equals the pre-crash live tables exactly,
// because every live mutation was WAL'd first.
//
// The WAL is bookkeeping, not cost: op charging (shard counters) is
// completely unchanged, so the op-parity tests hold by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "util/time.h"

namespace gpunion::db {

/// Every mutation the database accepts, WAL-record form.
enum class WalOp {
  kUpsertNode,
  kSetNodeStatus,
  kTouchHeartbeatBatch,  // one record per touched shard, max-merge semantics
  kOpenAllocation,
  kCloseAllocation,
  kEnqueue,  // queue_seq > 0: tail push; < 0: front push
  kPop,      // the scheduling pass's take
  kRemoveRequest,
  kProvenance,
  kMetric,
  kPutJobState,
  kEraseJobState,
  kJournalPut,
  kPutForward,
  kEraseForward,
  kPutHandoff,
};

/// One logged mutation, payload included — the log alone must be able to
/// reconstruct the mutation on replay.  Flat optional fields per op (the
/// codebase's record idiom); only the fields an op uses are meaningful.
struct WalRecord {
  std::uint64_t seq = 0;  // global, stamped by LedgerWal::append
  std::size_t shard = 0;  // owner of the durable row(s) this mutates
  WalOp op = WalOp::kUpsertNode;
  std::string key;        // machine id / job id / series name / blob key
  util::SimTime at = 0;

  NodeRecord node;                          // kUpsertNode
  NodeStatus status = NodeStatus::kActive;  // kSetNodeStatus
  std::vector<std::pair<std::string, util::SimTime>>
      batch_rows;                           // kTouchHeartbeatBatch
  AllocationRecord allocation;              // kOpenAllocation
  std::uint64_t allocation_id = 0;          // kCloseAllocation
  AllocationOutcome outcome = AllocationOutcome::kRunning;
  PendingRequest request;                   // kEnqueue
  std::int64_t queue_seq = 0;               // kEnqueue (insertion stamp)
  int priority = 0;                         // kPop
  double value = 0;                         // kMetric
  JobProvenance provenance;                 // kProvenance
  JobStateRecord job_state;                 // kPutJobState
  std::vector<std::int64_t> journal;        // kJournalPut
  ForwardStateRecord forward;               // kPutForward
  HandoffRecord handoff;                    // kPutHandoff
};

/// What a restarted process would read back from the shards: one logical
/// durable image, advanced per shard as commits land.  Containers are
/// keyed maps, so applying shard A's records before shard B's (commit
/// order) and applying strictly by global seq (recovery order) converge to
/// the same image; insertion-ordered live views (allocation ledger,
/// provenance log, queue FIFOs) are re-materialized from the keys.
struct TableImage {
  std::map<std::string, NodeRecord> nodes;
  std::map<std::uint64_t, AllocationRecord> allocations;  // key: allocation id
  /// priority -> (insertion stamp -> request); stamp order within a
  /// priority reproduces the live deque order exactly.
  std::map<int, std::map<std::int64_t, PendingRequest>, std::greater<>> queue;
  std::int64_t queue_back_seq = 0;   // max tail stamp ever applied
  std::int64_t queue_front_seq = 0;  // min front stamp ever applied
  std::map<std::uint64_t, JobProvenance> provenance;  // key: WAL seq
  std::map<std::string, std::deque<MetricPoint>> metrics;
  std::map<std::string, JobStateRecord> job_states;
  std::map<std::string, std::vector<std::int64_t>> journal;
  std::map<std::string, ForwardStateRecord> forwards;
  std::map<std::string, HandoffRecord> handoffs;
  std::uint64_t next_allocation_id = 1;

  std::size_t queue_rows() const;
};

/// Applies one WAL record to an image.  Must be the ONLY way image state
/// advances (commit time and recovery replay share it, so they cannot
/// disagree).  Replay of an already-applied record is the caller's job to
/// prevent (seq <= applied_seq(shard)); applications themselves assume
/// records arrive in seq order per shard.
void apply_to_image(TableImage& image, const WalRecord& record);

struct WalStats {
  std::uint64_t appended = 0;
  std::uint64_t truncated = 0;  // records dropped after their shard applied
  std::uint64_t recoveries = 0;
  std::uint64_t replayed = 0;   // records replayed across all recoveries
  std::size_t max_depth = 0;    // high-water mark of the pending log
};

/// The durable log object.  Append-only; per-shard applied watermarks let
/// group commits truncate exactly the prefix every owning shard has made
/// durable, and let recovery skip already-applied records idempotently.
class LedgerWal {
 public:
  explicit LedgerWal(std::size_t shard_count) : applied_(shard_count, 0) {}

  /// Stamps the record's global seq and appends it; returns the seq.
  std::uint64_t append(WalRecord record);

  const std::deque<WalRecord>& records() const { return records_; }
  std::size_t depth() const { return records_.size(); }
  /// Highest seq ever stamped (0 when nothing was appended).
  std::uint64_t last_seq() const { return next_seq_ - 1; }

  std::uint64_t applied_seq(std::size_t shard) const {
    return applied_[shard];
  }
  /// Advances one shard's durable watermark (monotonic).
  void mark_applied(std::size_t shard, std::uint64_t seq);

  /// Drops the prefix of records whose owning shard has applied them;
  /// returns how many were dropped.
  std::size_t truncate_applied();

  void note_recovery(std::uint64_t replayed);

  const WalStats& stats() const { return stats_; }

 private:
  std::deque<WalRecord> records_;
  std::vector<std::uint64_t> applied_;  // per shard
  std::uint64_t next_seq_ = 1;
  WalStats stats_;
};

}  // namespace gpunion::db
