// Sharded, multi-writer system database with write-behind ledgering.
//
// PR 2 batched the heartbeat writes; the next wall is the ~10 synchronous
// DB ops the scheduler pays per decision, which saturate a single writer
// past ~2k nodes under load.  This store spreads that load along two axes:
//
//  * Sharding: tables are partitioned by key — queue rows and provenance
//    by JOB id, node registry / heartbeats / allocations by NODE id
//    (deterministic FNV-1a routing) — across N writer shards, each with
//    its own op counter.  Synchronous load that used to queue behind one
//    writer spreads across N lanes; unkeyed ops (queue takes, depth
//    probes) rotate round-robin, and fan-out reads (nodes(),
//    pending_requests(), allocations_for_job on a node-partitioned table)
//    pay one scatter-gather op per shard.
//
//  * Write-behind: the control plane's per-decision mutations (allocation
//    open/close, pending-queue inserts, provenance) are absorbed by a
//    WriteBehindLedger and group-committed to their shards on a flush
//    interval or size threshold — one modeled write per touched shard per
//    flush instead of one per mutation.
//
// Consistency model: mutations apply to the shared in-memory tables
// immediately and only their durable shard write is deferred, so every
// in-process reader (Coordinator, Directory consumers, RegionGateway) gets
// read-your-writes on ledgered-but-unflushed state; shard op counters
// advance at commit time.  This is the same modeling contract PR 2
// established for touch_heartbeats (apply all rows, count one batched
// write).
//
// DbConfig{shard_count = 1, write_behind = false} reproduces the
// single-writer SystemDatabase exactly (same final table contents AND the
// same op accounting), which tests/db/sharded_db_test.cpp checks.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/ledger_wal.h"
#include "db/write_behind_ledger.h"
#include "util/status.h"
#include "util/time.h"

namespace gpunion::obs {
class Tracer;
}  // namespace gpunion::obs

namespace gpunion::db {

struct DbConfig {
  /// Writer shards the tables are partitioned across.
  int shard_count = 4;
  /// Absorb per-decision mutations into the write-behind ledger (off = every
  /// mutation is one synchronous shard write, as in SystemDatabase).
  bool write_behind = true;
  /// Background ledger-flush cadence.  The database is passive (no event
  /// loop of its own); the owner — Platform — drives flush_ledger() from a
  /// timer at this period.
  util::Duration flush_interval = 2.0;
  /// Pending ledger entries that force an immediate threshold flush.
  std::size_t flush_threshold = 256;
};

/// What crash_and_recover() reconstructed (observability + bench fodder).
struct RecoveryReport {
  std::size_t wal_depth_at_crash = 0;  // durable log records found
  std::size_t replayed = 0;            // applied ahead of their shard image
  std::size_t skipped_applied = 0;     // idempotently skipped (<= watermark)
  std::size_t nodes = 0;
  std::size_t allocations = 0;
  std::size_t queue_rows = 0;
  std::size_t job_states = 0;
  std::size_t forward_states = 0;
  std::size_t handoffs = 0;
};

class ShardedDatabase : public Database {
 public:
  explicit ShardedDatabase(DbConfig config = {});

  // --- Database interface (see db/database.h) -------------------------------
  util::Status upsert_node(NodeRecord record) override;
  util::StatusOr<NodeRecord> node(const std::string& machine_id)
      const override;
  util::Status set_node_status(const std::string& machine_id,
                               NodeStatus s) override;
  /// One batched write per shard holding at least one row of the batch.
  std::size_t touch_heartbeats(
      const std::vector<std::pair<std::string, util::SimTime>>& batch)
      override;
  std::vector<NodeRecord> nodes() const override;

  std::uint64_t open_allocation(const std::string& job_id,
                                const std::string& machine_id,
                                std::vector<int> gpu_indices,
                                util::SimTime at, double gpu_fraction = 1.0,
                                bool interactive = false) override;
  util::Status close_allocation(std::uint64_t allocation_id,
                                AllocationOutcome outcome,
                                util::SimTime at) override;
  std::vector<AllocationRecord> allocations_for_job(
      const std::string& job_id) const override;
  const std::vector<AllocationRecord>& allocation_ledger() const override {
    return ledger_;
  }

  void enqueue_request(PendingRequest request) override;
  void enqueue_request_front(PendingRequest request) override;
  std::vector<PendingRequest> pending_requests() const override;
  bool take_request(const std::string& job_id) override;
  bool remove_request(const std::string& job_id) override;
  std::size_t queue_depth() const override;

  void record_provenance(JobProvenance provenance) override;
  const JobProvenance* provenance(const std::string& job_id) const override;
  const std::vector<JobProvenance>& provenance_log() const override {
    return provenance_log_;
  }

  // --- Durable control-plane state (uncharged; see Database) -------------------
  // Reads are served straight from the durable image: these tables are
  // WAL'd and applied synchronously, so image == live for them always.
  void put_job_state(JobStateRecord record) override;
  bool erase_job_state(const std::string& job_id) override;
  const JobStateRecord* job_state(const std::string& job_id) const override;
  std::vector<JobStateRecord> job_states() const override;
  void put_journal(const std::string& key,
                   std::vector<std::int64_t> values) override;
  const std::vector<std::int64_t>* journal(
      const std::string& key) const override;
  void put_forward_state(ForwardStateRecord record) override;
  bool erase_forward_state(const std::string& job_id) override;
  std::vector<ForwardStateRecord> forward_states() const override;
  void put_handoff(HandoffRecord record) override;
  std::vector<HandoffRecord> handoffs() const override;

  /// Total charged ops summed across shards (sync + flush commits).
  std::uint64_t op_count() const override;

  // --- Sharding introspection -------------------------------------------------
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Deterministic owner shard of node-keyed rows (registry, heartbeats,
  /// allocations).
  std::size_t shard_for_node(std::string_view machine_id) const {
    return route(machine_id);
  }
  /// Deterministic owner shard of job-keyed rows (queue, provenance).
  std::size_t shard_for_job(std::string_view job_id) const {
    return route(job_id);
  }
  /// Ops charged to one shard (sync writes/reads + its ledger commits).
  std::uint64_t shard_ops(std::size_t shard) const {
    return shards_.at(shard).ops;
  }
  /// Rows currently owned by one shard (registry + allocations + queue +
  /// provenance inserts; audit of the partitioning, not a cost model).
  std::uint64_t shard_rows(std::size_t shard) const {
    return shards_.at(shard).rows;
  }
  std::vector<std::uint64_t> shard_op_counts() const;
  /// Ops charged synchronously at call time (everything except ledger
  /// group commits).
  std::uint64_t sync_op_count() const { return sync_ops_; }

  // --- Write-behind ledger ------------------------------------------------------
  const WriteBehindLedger& ledger() const { return ledger_log_; }
  /// Group-commits pending ledger entries to their shards.  Threshold
  /// flushes happen automatically inside absorbing mutations; the interval
  /// flush is driven by the owner's timer.  Returns entries committed.
  /// `at` is the commit time for trace spans (owner timers pass now();
  /// callers without a clock leave -1 and the newest absorbed entry's
  /// timestamp stands in).
  std::size_t flush_ledger(FlushTrigger trigger = FlushTrigger::kExplicit,
                           util::SimTime at = -1);

  /// Attaches a tracer: each flushed ledger entry closes one
  /// db_group_commit span on the trace of the job whose key it carries —
  /// ack-to-durable latency becomes visible per job.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // --- Write-ahead log & crash recovery ----------------------------------------
  const LedgerWal& wal() const { return wal_; }
  /// The durable image a restarted process would read back (tests/benches).
  const TableImage& durable_image() const { return image_; }

  /// Models a process crash and restart: discards every live table and
  /// rebuilds them from durable state only — the per-shard images plus a
  /// replay of WAL-ahead-of-shard records in global seq order (idempotent:
  /// records at/below a shard's applied watermark are skipped).  Because
  /// every mutation was WAL'd before its caller saw the ack, the rebuilt
  /// tables equal the pre-crash live tables exactly; op counters and the
  /// WriteBehindLedger's pending (cost) entries survive, so op charging
  /// stays continuous across the crash.
  RecoveryReport crash_and_recover();

  /// Report of the most recent crash_and_recover() (all-zero before the
  /// first), plus how many recoveries this store has performed — the dark
  /// data the platform surfaces as metrics.
  const RecoveryReport& last_recovery_report() const {
    return last_recovery_report_;
  }
  std::uint64_t recoveries() const { return recoveries_; }

  /// One-shot fault arming (FaultInjector): the next flush skips SHARD's
  /// image commit (records stay in the WAL; the retry is the next flush)...
  void arm_commit_failure(std::size_t shard);
  /// ...or stops mid-group-commit after K shard images advanced, without
  /// truncating — the torn state a crash_and_recover() must then heal.
  void arm_flush_crash(std::size_t shards_before_crash);
  std::uint64_t commit_failures() const { return commit_failures_; }
  /// True when the last flush stopped early under arm_flush_crash.
  bool flush_interrupted() const { return flush_interrupted_; }

  // --- Pending-queue work stealing ---------------------------------------------
  /// Takes whose row lived in the rotating (charged) shard's own partition.
  std::uint64_t local_pops() const { return local_pops_; }
  /// Takes whose row lived in another shard's partition (the stealing
  /// cross-partition case).
  std::uint64_t stolen_pops() const { return stolen_pops_; }

  const DbConfig& config() const { return config_; }

 private:
  struct Shard {
    std::uint64_t ops = 0;   // charged ops (sync + group commits)
    std::uint64_t rows = 0;  // owned rows (audit of the partitioning)
  };

  /// One pending-queue row.  `seq` is a global insertion stamp: back pushes
  /// count up from 1, front pushes count down from -1, so ascending seq
  /// within a priority reproduces the legacy single-deque order exactly
  /// (newest push_front first, then FIFO push_backs).
  struct QueueItem {
    PendingRequest request;
    std::int64_t seq;
  };
  /// Per-shard slice of the pending queue, keyed like the legacy queue
  /// (priority desc).  A shard's partition holds the jobs it owns
  /// (shard_for_job); the ordered read merges the partitions back into the
  /// single queue's order.
  struct QueuePartition {
    std::map<int, std::deque<QueueItem>, std::greater<>> by_priority;
  };

  std::size_t route(std::string_view key) const;
  /// Charges one synchronous op to `shard`.
  void charge(std::size_t shard) const;
  /// Rotating writer for unkeyed ops (queue takes / depth probes): any
  /// lane can serve them, so the load spreads deterministically.
  std::size_t rotate() const;
  /// Erases the job's first row from its owner partition; the row's
  /// priority, or nullopt if the job has none queued.
  std::optional<int> erase_queued(std::size_t shard, const std::string& job_id);
  /// Absorbs a decision-path mutation: ledgered under write-behind
  /// (threshold-flushing when the log fills), synchronous otherwise.
  void absorb(LedgerOpKind kind, std::size_t shard, std::string key,
              std::uint64_t allocation_id, util::SimTime at);
  /// Appends one WAL record.  `deferred` mutations (write-behind absorbs)
  /// leave their shard image to the next group commit; everything else is
  /// durable at call time — the synchronous round trip IS the write — so
  /// the shard's image advances (and the applied prefix truncates) here.
  void wal_append(WalRecord record, bool deferred);
  /// Applies SHARD's pending WAL records with seq <= upto to the image.
  void advance_image(std::size_t shard, std::uint64_t upto_seq);
  /// Replaces every live table with a materialization of image_.
  void rebuild_live_tables();

  DbConfig config_;
  // Mutable like SystemDatabase::ops_: reads are charged ops too.
  mutable std::vector<Shard> shards_;
  WriteBehindLedger ledger_log_;
  LedgerWal wal_;
  TableImage image_;
  std::vector<bool> armed_commit_failures_;
  /// >= 0: next flush advances this many shard images, then stops.
  int armed_flush_crash_ = -1;
  std::uint64_t commit_failures_ = 0;
  bool flush_interrupted_ = false;

  // Logical tables (merged view; each row owned by exactly one shard).
  std::map<std::string, NodeRecord> nodes_;  // ordered: deterministic scans
  std::vector<AllocationRecord> ledger_;
  std::unordered_map<std::uint64_t, std::size_t> ledger_index_;
  std::vector<QueuePartition> queue_parts_;  // one per shard
  std::int64_t queue_back_seq_ = 0;   // next back push stamps ++this
  std::int64_t queue_front_seq_ = 0;  // next front push stamps --this
  std::size_t queued_rows_ = 0;       // cached depth (O(1) probes)
  std::vector<JobProvenance> provenance_log_;
  std::unordered_map<std::string, std::size_t> provenance_index_;
  std::uint64_t next_allocation_id_ = 1;

  mutable std::uint64_t sync_ops_ = 0;
  mutable std::size_t rotate_cursor_ = 0;
  std::uint64_t local_pops_ = 0;
  std::uint64_t stolen_pops_ = 0;
  obs::Tracer* tracer_ = nullptr;
  RecoveryReport last_recovery_report_;
  std::uint64_t recoveries_ = 0;
};

}  // namespace gpunion::db
