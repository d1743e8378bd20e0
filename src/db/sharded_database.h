// Sharded, multi-writer system database with write-behind ledgering.
//
// PR 2 batched the heartbeat writes; the next wall is the ~10 synchronous
// DB ops the scheduler pays per decision, which saturate a single writer
// past ~2k nodes under load.  This store spreads that load along two axes:
//
//  * Sharding: tables are partitioned by key — queue rows and provenance
//    by JOB id, node registry / heartbeats / allocations by NODE id
//    (deterministic FNV-1a routing) — across kShardCount writer shards,
//    each with its own op counter.  Synchronous load that used to queue
//    behind one writer spreads across the lanes; unkeyed ops (queue takes,
//    depth probes) rotate round-robin, and fan-out reads (nodes(),
//    pending_requests(), allocations_for_job on a node-partitioned table)
//    pay one scatter-gather op per shard.  The shards are also the WAL's
//    durability domains: a synchronous write advances only its own shard's
//    image, so a deferred record on another shard outlives it.
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
// write).  Tables that only synchronous writes touch (node registry, job
// and forward states, journal, handoffs) are read straight from the
// durable image, which always equals their live state.
//
// The store runs one configuration: kShardCount shards, write-behind on.
// The single-writer SystemDatabase (db/database.h) is the reference it is
// tested against for table contents.
#pragma once

#include <array>
#include <cstdint>
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

/// Writer shards the tables are partitioned across, and the WAL's
/// durability domains.  With one shard, every synchronous write would
/// commit every deferred record, and a crash would find none to replay.
inline constexpr std::size_t kShardCount = 4;

struct DbConfig {
  /// Write-behind is the only mode: per-decision mutations are absorbed by
  /// the ledger and group-committed.  A constant, still named because
  /// perfbench reads it.
  static constexpr bool write_behind{true};
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
  static constexpr int shard_count() { return static_cast<int>(kShardCount); }
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
    return shard_ops_.at(shard);
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
  /// ...or stops mid-group-commit once K of the shards that hold unapplied
  /// records advanced, without truncating — the torn state a
  /// crash_and_recover() must then heal.  Shards with nothing to apply do
  /// not count, so K below wal().shards_behind() always leaves a record to
  /// replay.
  void arm_flush_crash(std::size_t shards_before_crash);
  std::uint64_t commit_failures() const { return commit_failures_; }
  /// True when the last flush stopped early under arm_flush_crash.
  bool flush_interrupted() const { return flush_interrupted_; }

  // --- Pending-queue work stealing ---------------------------------------------
  /// Takes served by the shard that owns the job's row.
  std::uint64_t local_pops() const { return local_pops_; }
  /// Takes served by another shard (the rotating server stole the take).
  std::uint64_t stolen_pops() const { return stolen_pops_; }

 private:
  std::size_t route(std::string_view key) const;
  /// Charges one synchronous op to `shard`.
  void charge(std::size_t shard) const;
  /// Charges one scatter-gather op to every shard.
  void charge_all() const;
  /// Rotating writer for unkeyed ops (queue takes / depth probes): any
  /// lane can serve them, so the load spreads deterministically.
  std::size_t rotate() const;
  /// Inserts a queue row at `stamp` and logs it (deferred).
  void enqueue_at(PendingRequest request, std::int64_t stamp);
  /// Erases the job's first queued row and logs the removal; false if the
  /// job has none.
  bool erase_queued(const std::string& job_id);
  /// Absorbs a decision-path mutation into the ledger, flushing when the
  /// log reaches its threshold.
  void absorb(LedgerOpKind kind, std::size_t shard, std::string key,
              std::uint64_t allocation_id, util::SimTime at);
  /// Appends one WAL record.  `deferred` mutations (write-behind absorbs)
  /// leave their shard image to the next group commit; everything else is
  /// durable at call time — the synchronous round trip IS the write — so
  /// the shard's image advances (and the applied prefix truncates) here.
  void wal_append(std::size_t shard, WalPayload payload, bool deferred);
  /// Applies SHARD's pending WAL records with seq <= upto to the image.
  void advance_image(std::size_t shard, std::uint64_t upto_seq);
  /// Replaces every live table with a materialization of image_.
  void rebuild_live_tables();

  // Charged ops per shard (sync writes/reads + its group commits); mutable
  // like SystemDatabase::ops_, because reads are charged ops too.
  mutable std::array<std::uint64_t, kShardCount> shard_ops_{};
  WriteBehindLedger ledger_log_;
  LedgerWal wal_;
  TableImage image_;
  std::array<bool, kShardCount> armed_commit_failures_{};
  /// >= 0: next flush advances this many behind shards, then stops.
  int armed_flush_crash_ = -1;
  std::uint64_t commit_failures_ = 0;
  bool flush_interrupted_ = false;

  // Live tables with writes the ledger defers (each row owned by exactly
  // one shard); the rest are read from image_.
  std::vector<AllocationRecord> ledger_;
  std::unordered_map<std::uint64_t, std::size_t> ledger_index_;
  QueueTable queue_;
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
