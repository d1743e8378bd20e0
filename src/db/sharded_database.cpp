#include "db/sharded_database.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/ids.h"

namespace gpunion::db {

namespace {

WalRecord make_wal(WalOp op, std::size_t shard, std::string key) {
  WalRecord record;
  record.op = op;
  record.shard = shard;
  record.key = std::move(key);
  return record;
}

}  // namespace

ShardedDatabase::ShardedDatabase(DbConfig config)
    : config_(config),
      shards_(static_cast<std::size_t>(std::max(1, config.shard_count))),
      ledger_log_(std::max<std::size_t>(1, config.flush_threshold)),
      wal_(shards_.size()),
      armed_commit_failures_(shards_.size(), false),
      queue_parts_(shards_.size()) {
  config_.shard_count = static_cast<int>(shards_.size());
}

std::size_t ShardedDatabase::route(std::string_view key) const {
  // FNV-1a: deterministic across platforms and runs (std::hash is not
  // guaranteed to be), so shard ownership is reproducible.
  return static_cast<std::size_t>(util::fnv1a64(key) % shards_.size());
}

void ShardedDatabase::charge(std::size_t shard) const {
  ++shards_[shard].ops;
  ++sync_ops_;
}

std::size_t ShardedDatabase::rotate() const {
  const std::size_t shard = rotate_cursor_;
  rotate_cursor_ = (rotate_cursor_ + 1) % shards_.size();
  return shard;
}

void ShardedDatabase::absorb(LedgerOpKind kind, std::size_t shard,
                             std::string key, std::uint64_t allocation_id,
                             util::SimTime at) {
  if (!config_.write_behind) {
    charge(shard);
    return;
  }
  if (ledger_log_.absorb(
          LedgerEntry{kind, shard, std::move(key), allocation_id, at})) {
    flush_ledger(FlushTrigger::kThreshold);
  }
}

std::size_t ShardedDatabase::flush_ledger(FlushTrigger trigger,
                                          util::SimTime at) {
  // Ack-to-durable spans: each pending entry was acked to its caller at
  // recorded_at and becomes durable now, so the group commit closes one
  // db_group_commit span per entry on the owning job's trace.
  if (tracer_ != nullptr && tracer_->enabled() && !ledger_log_.empty()) {
    util::SimTime commit_at = at;
    if (commit_at < 0) {
      for (const LedgerEntry& entry : ledger_log_.pending_entries()) {
        commit_at = std::max(commit_at, entry.recorded_at);
      }
    }
    for (const LedgerEntry& entry : ledger_log_.pending_entries()) {
      tracer_->close_span(tracer_->open_span(),
                          obs::Tracer::trace_for_job(entry.key),
                          /*parent_span=*/0, obs::stage::kDbGroupCommit,
                          "db", entry.recorded_at, commit_at,
                          std::string(ledger_op_name(entry.kind)));
    }
  }
  // One group commit per touched shard, however many entries it absorbs.
  const std::size_t committed =
      ledger_log_.flush(trigger, [this](std::size_t shard, std::size_t) {
        ++shards_[shard].ops;
      });
  // Group commit advances each shard's durable image past its pending WAL
  // records (in shard order: image containers are keyed, so per-shard
  // application order cannot change the result).  Armed faults
  // model a failed shard commit (records stay in the WAL for the next
  // flush) or a crash mid-group-commit (stop early, no truncation — the
  // torn state recovery has to heal).
  const std::uint64_t upto = wal_.last_seq();
  flush_interrupted_ = false;
  std::size_t advanced = 0;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    if (armed_flush_crash_ >= 0 &&
        advanced >= static_cast<std::size_t>(armed_flush_crash_)) {
      flush_interrupted_ = true;
      break;
    }
    if (armed_commit_failures_[shard]) {
      armed_commit_failures_[shard] = false;
      ++commit_failures_;
      continue;
    }
    advance_image(shard, upto);
    ++advanced;
  }
  armed_flush_crash_ = -1;
  if (!flush_interrupted_) wal_.truncate_applied();
  return committed;
}

void ShardedDatabase::wal_append(WalRecord record, bool deferred) {
  const std::size_t shard = record.shard;
  const std::uint64_t seq = wal_.append(std::move(record));
  if (deferred && config_.write_behind) return;  // durable at next flush
  advance_image(shard, seq);
  wal_.truncate_applied();
}

void ShardedDatabase::advance_image(std::size_t shard,
                                    std::uint64_t upto_seq) {
  for (const WalRecord& record : wal_.records()) {
    if (record.seq > upto_seq) break;
    if (record.shard != shard || record.seq <= wal_.applied_seq(shard)) {
      continue;
    }
    apply_to_image(image_, record);
  }
  wal_.mark_applied(shard, upto_seq);
}

void ShardedDatabase::arm_commit_failure(std::size_t shard) {
  if (shard < armed_commit_failures_.size()) {
    armed_commit_failures_[shard] = true;
  }
}

void ShardedDatabase::arm_flush_crash(std::size_t shards_before_crash) {
  armed_flush_crash_ = static_cast<int>(shards_before_crash);
}

RecoveryReport ShardedDatabase::crash_and_recover() {
  RecoveryReport report;
  report.wal_depth_at_crash = wal_.depth();
  // A restarted process sees only durable state: the shard images plus the
  // WAL tail.  Replay ahead-of-shard records in global seq order; replay
  // is idempotent because records a shard already committed sit at/below
  // its applied watermark and are skipped.
  for (const WalRecord& record : wal_.records()) {
    if (record.seq <= wal_.applied_seq(record.shard)) {
      ++report.skipped_applied;
      continue;
    }
    apply_to_image(image_, record);
    ++report.replayed;
  }
  // The replayed image is the recovery checkpoint: every shard is now
  // current, so the whole log truncates.
  const std::uint64_t last = wal_.last_seq();
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    wal_.mark_applied(shard, last);
  }
  wal_.truncate_applied();
  wal_.note_recovery(report.replayed);
  // Disarm any pending faults: they belonged to the crashed incarnation.
  armed_commit_failures_.assign(shards_.size(), false);
  armed_flush_crash_ = -1;
  flush_interrupted_ = false;
  rebuild_live_tables();
  report.nodes = nodes_.size();
  report.allocations = ledger_.size();
  report.queue_rows = queued_rows_;
  report.job_states = image_.job_states.size();
  report.forward_states = image_.forwards.size();
  report.handoffs = image_.handoffs.size();
  last_recovery_report_ = report;
  ++recoveries_;
  return report;
}

void ShardedDatabase::rebuild_live_tables() {
  // Live tables are rebuilt from the image alone — nothing the WAL did not
  // make durable survives.  Op counters, local/stolen take stats and the
  // WriteBehindLedger's pending COST entries are accounting, not state:
  // they persist so charging stays continuous across the crash (the
  // deferred group commits are still paid at the next flush).
  nodes_ = image_.nodes;
  ledger_.clear();
  ledger_index_.clear();
  for (const auto& [id, record] : image_.allocations) {
    ledger_index_[id] = ledger_.size();
    ledger_.push_back(record);  // id order == open order
  }
  next_allocation_id_ = image_.next_allocation_id;
  queue_parts_.assign(shards_.size(), QueuePartition{});
  queued_rows_ = 0;
  for (const auto& [priority, bucket] : image_.queue) {
    for (const auto& [seq, request] : bucket) {
      // Seq order within a priority reproduces each partition's deque
      // order (front pushes carry negative stamps and sort first).
      queue_parts_[shard_for_job(request.job_id)]
          .by_priority[priority]
          .push_back(QueueItem{request, seq});
      ++queued_rows_;
    }
  }
  queue_back_seq_ = image_.queue_back_seq;
  queue_front_seq_ = image_.queue_front_seq;
  provenance_log_.clear();
  provenance_index_.clear();
  for (const auto& [seq, row] : image_.provenance) {
    provenance_index_[row.job_id] = provenance_log_.size();
    provenance_log_.push_back(row);  // WAL-seq order == append order
  }
  // Row-ownership audit counters, recomputed from the rebuilt tables (the
  // same net counts the per-mutation ++/-- maintained).
  for (Shard& shard : shards_) shard.rows = 0;
  for (const auto& [id, record] : nodes_) {
    ++shards_[shard_for_node(id)].rows;
  }
  for (const AllocationRecord& record : ledger_) {
    ++shards_[shard_for_node(record.machine_id)].rows;
  }
  for (std::size_t shard = 0; shard < queue_parts_.size(); ++shard) {
    for (const auto& [priority, fifo] : queue_parts_[shard].by_priority) {
      shards_[shard].rows += fifo.size();
    }
  }
  for (const JobProvenance& row : provenance_log_) {
    ++shards_[shard_for_job(row.job_id)].rows;
  }
}

// ---------------------------------------------------------------------------
// Node registry (sharded by machine id)
// ---------------------------------------------------------------------------

util::Status ShardedDatabase::upsert_node(NodeRecord record) {
  // The round trip happens before validation (legacy op-accounting parity).
  const std::size_t shard = shard_for_node(record.machine_id);
  charge(shard);
  if (record.machine_id.empty()) {
    return util::invalid_argument_error("node record requires a machine id");
  }
  WalRecord wal = make_wal(WalOp::kUpsertNode, shard, record.machine_id);
  wal.node = record;
  auto [it, inserted] =
      nodes_.insert_or_assign(record.machine_id, std::move(record));
  (void)it;
  if (inserted) ++shards_[shard].rows;
  wal_append(std::move(wal), /*deferred=*/false);
  return util::Status();
}

util::StatusOr<NodeRecord> ShardedDatabase::node(
    const std::string& machine_id) const {
  charge(shard_for_node(machine_id));
  auto it = nodes_.find(machine_id);
  if (it == nodes_.end()) {
    return util::not_found_error("node " + machine_id + " not registered");
  }
  return it->second;
}

util::Status ShardedDatabase::set_node_status(const std::string& machine_id,
                                              NodeStatus s) {
  const std::size_t shard = shard_for_node(machine_id);
  charge(shard);
  auto it = nodes_.find(machine_id);
  if (it == nodes_.end()) {
    return util::not_found_error("node " + machine_id + " not registered");
  }
  it->second.status = s;
  WalRecord wal = make_wal(WalOp::kSetNodeStatus, shard, machine_id);
  wal.status = s;
  wal_append(std::move(wal), /*deferred=*/false);
  return util::Status();
}

std::size_t ShardedDatabase::touch_heartbeats(
    const std::vector<std::pair<std::string, util::SimTime>>& batch) {
  // One batched write per shard owning at least one row of the batch (the
  // PR 2 coalescing contract, now multi-writer).  An empty batch is still
  // one round trip (legacy op-accounting parity).
  if (batch.empty()) {
    charge(rotate());
    return 0;
  }
  // Rows grouped per shard: one batched write AND one WAL record per
  // touched shard.
  std::vector<std::vector<std::pair<std::string, util::SimTime>>> by_shard(
      shards_.size());
  std::size_t applied = 0;
  for (const auto& [machine_id, at] : batch) {
    by_shard[shard_for_node(machine_id)].emplace_back(machine_id, at);
    auto it = nodes_.find(machine_id);
    if (it == nodes_.end()) continue;
    it->second.last_heartbeat = std::max(it->second.last_heartbeat, at);
    ++applied;
  }
  for (std::size_t shard = 0; shard < by_shard.size(); ++shard) {
    if (by_shard[shard].empty()) continue;
    charge(shard);
    WalRecord wal = make_wal(WalOp::kTouchHeartbeatBatch, shard, {});
    wal.batch_rows = std::move(by_shard[shard]);
    wal_append(std::move(wal), /*deferred=*/false);
  }
  return applied;
}

std::vector<NodeRecord> ShardedDatabase::nodes() const {
  // Scatter-gather: every shard serves its partition of the scan.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    charge(shard);
  }
  std::vector<NodeRecord> out;
  out.reserve(nodes_.size());
  for (const auto& [id, record] : nodes_) out.push_back(record);
  return out;
}

// ---------------------------------------------------------------------------
// Allocation ledger (sharded by machine id; write-behind)
// ---------------------------------------------------------------------------

std::uint64_t ShardedDatabase::open_allocation(const std::string& job_id,
                                               const std::string& machine_id,
                                               std::vector<int> gpu_indices,
                                               util::SimTime at,
                                               double gpu_fraction,
                                               bool interactive) {
  const std::size_t shard = shard_for_node(machine_id);
  AllocationRecord record;
  record.allocation_id = next_allocation_id_++;
  record.job_id = job_id;
  record.machine_id = machine_id;
  record.gpu_indices = std::move(gpu_indices);
  record.gpu_fraction = gpu_fraction;
  record.interactive = interactive;
  record.started_at = at;
  const std::uint64_t id = record.allocation_id;
  WalRecord wal = make_wal(WalOp::kOpenAllocation, shard, machine_id);
  wal.allocation = record;
  ledger_index_[id] = ledger_.size();
  ledger_.push_back(std::move(record));
  ++shards_[shard].rows;
  wal_append(std::move(wal), /*deferred=*/true);
  absorb(LedgerOpKind::kAllocationOpen, shard, machine_id, id, at);
  return id;
}

util::Status ShardedDatabase::close_allocation(std::uint64_t allocation_id,
                                               AllocationOutcome outcome,
                                               util::SimTime at) {
  auto it = ledger_index_.find(allocation_id);
  if (it == ledger_index_.end()) {
    return util::not_found_error("allocation " +
                                 std::to_string(allocation_id));
  }
  AllocationRecord& record = ledger_[it->second];
  if (record.outcome != AllocationOutcome::kRunning) {
    return util::failed_precondition_error(
        "allocation " + std::to_string(allocation_id) + " already closed");
  }
  record.outcome = outcome;
  record.ended_at = at;
  const std::size_t shard = shard_for_node(record.machine_id);
  WalRecord wal = make_wal(WalOp::kCloseAllocation, shard, record.machine_id);
  wal.allocation_id = allocation_id;
  wal.outcome = outcome;
  wal.at = at;
  wal_append(std::move(wal), /*deferred=*/true);
  absorb(LedgerOpKind::kAllocationClose, shard, record.machine_id,
         allocation_id, at);
  return util::Status();
}

std::vector<AllocationRecord> ShardedDatabase::allocations_for_job(
    const std::string& job_id) const {
  // A by-job query over a node-partitioned table: scatter to every shard.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    charge(shard);
  }
  std::vector<AllocationRecord> out;
  for (const auto& record : ledger_) {
    if (record.job_id == job_id) out.push_back(record);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pending request queue (rows sharded by job id; takes rotate)
// ---------------------------------------------------------------------------

void ShardedDatabase::enqueue_request(PendingRequest request) {
  const std::size_t shard = shard_for_job(request.job_id);
  ++shards_[shard].rows;
  ++queued_rows_;
  const std::int64_t seq = ++queue_back_seq_;
  WalRecord wal = make_wal(WalOp::kEnqueue, shard, request.job_id);
  wal.request = request;
  wal.queue_seq = seq;
  wal_append(std::move(wal), /*deferred=*/true);
  absorb(LedgerOpKind::kEnqueue, shard, request.job_id, 0,
         request.submitted_at);
  const int priority = request.priority;
  queue_parts_[shard].by_priority[priority].push_back(
      QueueItem{std::move(request), seq});
}

void ShardedDatabase::enqueue_request_front(PendingRequest request) {
  const std::size_t shard = shard_for_job(request.job_id);
  ++shards_[shard].rows;
  ++queued_rows_;
  const std::int64_t seq = --queue_front_seq_;
  WalRecord wal = make_wal(WalOp::kEnqueue, shard, request.job_id);
  wal.request = request;
  wal.queue_seq = seq;
  wal_append(std::move(wal), /*deferred=*/true);
  absorb(LedgerOpKind::kEnqueue, shard, request.job_id, 0,
         request.submitted_at);
  const int priority = request.priority;
  queue_parts_[shard].by_priority[priority].push_front(
      QueueItem{std::move(request), seq});
}

std::vector<PendingRequest> ShardedDatabase::pending_requests() const {
  // Scatter-gather: every shard serves its partition, and sorting the rows
  // by (priority desc, insertion stamp asc) merges them back into the
  // single queue's order.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    charge(shard);
  }
  std::vector<const QueueItem*> rows;
  rows.reserve(queued_rows_);
  for (const QueuePartition& part : queue_parts_) {
    for (const auto& [priority, fifo] : part.by_priority) {
      for (const QueueItem& item : fifo) rows.push_back(&item);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const QueueItem* a, const QueueItem* b) {
              if (a->request.priority != b->request.priority) {
                return a->request.priority > b->request.priority;
              }
              return a->seq < b->seq;
            });
  std::vector<PendingRequest> out;
  out.reserve(rows.size());
  for (const QueueItem* row : rows) out.push_back(row->request);
  return out;
}

std::optional<int> ShardedDatabase::erase_queued(std::size_t shard,
                                                 const std::string& job_id) {
  // The job can only live in its owner shard's slice of the queue.
  auto& parts = queue_parts_[shard].by_priority;
  for (auto it = parts.begin(); it != parts.end(); ++it) {
    auto& fifo = it->second;
    for (auto rit = fifo.begin(); rit != fifo.end(); ++rit) {
      if (rit->request.job_id != job_id) continue;
      const int priority = it->first;
      fifo.erase(rit);
      if (fifo.empty()) parts.erase(it);
      if (shards_[shard].rows > 0) --shards_[shard].rows;
      if (queued_rows_ > 0) --queued_rows_;
      return priority;
    }
  }
  return std::nullopt;
}

bool ShardedDatabase::take_request(const std::string& job_id) {
  // One synchronous round trip that any writer lane can serve
  // (multi-writer), so the load rotates; a take from another shard's
  // partition steals.
  const std::size_t server = rotate();
  charge(server);
  const std::size_t shard = shard_for_job(job_id);
  const std::optional<int> priority = erase_queued(shard, job_id);
  if (!priority.has_value()) return false;
  if (shard == server) {
    ++local_pops_;
  } else {
    ++stolen_pops_;
  }
  WalRecord wal = make_wal(WalOp::kPop, shard, job_id);
  wal.priority = *priority;
  wal_append(std::move(wal), /*deferred=*/false);
  return true;
}

bool ShardedDatabase::remove_request(const std::string& job_id) {
  // Like take_request, a synchronous read-modify-write in BOTH modes: the
  // found/not-found answer is consumed immediately, so the round trip to
  // the owning shard cannot be deferred (and a miss still paid for it).
  const std::size_t shard = shard_for_job(job_id);
  charge(shard);
  if (!erase_queued(shard, job_id).has_value()) return false;
  wal_append(make_wal(WalOp::kRemoveRequest, shard, job_id),
             /*deferred=*/false);
  return true;
}

std::size_t ShardedDatabase::queue_depth() const {
  // Depth probe (heartbeat path): a metadata read any lane can answer.
  // The row count is maintained on mutation, so the probe is O(1) instead
  // of a scan over every partition.
  charge(rotate());
  return queued_rows_;
}

// ---------------------------------------------------------------------------
// Provenance (sharded by job id; write-behind)
// ---------------------------------------------------------------------------

void ShardedDatabase::record_provenance(JobProvenance provenance) {
  const std::size_t shard = shard_for_job(provenance.job_id);
  ++shards_[shard].rows;
  const std::string job_id = provenance.job_id;
  const util::SimTime at = provenance.recorded_at;
  WalRecord wal = make_wal(WalOp::kProvenance, shard, job_id);
  wal.provenance = provenance;
  provenance_index_[provenance.job_id] = provenance_log_.size();
  provenance_log_.push_back(std::move(provenance));
  wal_append(std::move(wal), /*deferred=*/true);
  absorb(LedgerOpKind::kProvenance, shard, job_id, 0, at);
}

const JobProvenance* ShardedDatabase::provenance(
    const std::string& job_id) const {
  charge(shard_for_job(job_id));
  auto it = provenance_index_.find(job_id);
  return it == provenance_index_.end() ? nullptr
                                       : &provenance_log_[it->second];
}

// ---------------------------------------------------------------------------
// Durable control-plane state (uncharged; WAL'd and applied synchronously,
// so reads come straight from the durable image)
// ---------------------------------------------------------------------------

void ShardedDatabase::put_job_state(JobStateRecord record) {
  WalRecord wal =
      make_wal(WalOp::kPutJobState, shard_for_job(record.job_id),
               record.job_id);
  wal.job_state = std::move(record);
  wal_append(std::move(wal), /*deferred=*/false);
}

bool ShardedDatabase::erase_job_state(const std::string& job_id) {
  if (image_.job_states.find(job_id) == image_.job_states.end()) return false;
  wal_append(make_wal(WalOp::kEraseJobState, shard_for_job(job_id), job_id),
             /*deferred=*/false);
  return true;
}

const JobStateRecord* ShardedDatabase::job_state(
    const std::string& job_id) const {
  auto it = image_.job_states.find(job_id);
  return it == image_.job_states.end() ? nullptr : &it->second;
}

std::vector<JobStateRecord> ShardedDatabase::job_states() const {
  std::vector<JobStateRecord> out;
  out.reserve(image_.job_states.size());
  for (const auto& [id, record] : image_.job_states) out.push_back(record);
  return out;
}

void ShardedDatabase::put_journal(const std::string& key,
                                  std::vector<std::int64_t> values) {
  WalRecord wal = make_wal(WalOp::kJournalPut, route(key), key);
  wal.journal = std::move(values);
  wal_append(std::move(wal), /*deferred=*/false);
}

const std::vector<std::int64_t>* ShardedDatabase::journal(
    const std::string& key) const {
  auto it = image_.journal.find(key);
  return it == image_.journal.end() ? nullptr : &it->second;
}

void ShardedDatabase::put_forward_state(ForwardStateRecord record) {
  WalRecord wal = make_wal(WalOp::kPutForward, shard_for_job(record.job_id),
                           record.job_id);
  wal.forward = std::move(record);
  wal_append(std::move(wal), /*deferred=*/false);
}

bool ShardedDatabase::erase_forward_state(const std::string& job_id) {
  if (image_.forwards.find(job_id) == image_.forwards.end()) return false;
  wal_append(make_wal(WalOp::kEraseForward, shard_for_job(job_id), job_id),
             /*deferred=*/false);
  return true;
}

std::vector<ForwardStateRecord> ShardedDatabase::forward_states() const {
  std::vector<ForwardStateRecord> out;
  out.reserve(image_.forwards.size());
  for (const auto& [id, record] : image_.forwards) out.push_back(record);
  return out;
}

void ShardedDatabase::put_handoff(HandoffRecord record) {
  WalRecord wal = make_wal(WalOp::kPutHandoff, shard_for_job(record.job_id),
                           record.job_id);
  wal.handoff = std::move(record);
  wal_append(std::move(wal), /*deferred=*/false);
}

std::vector<HandoffRecord> ShardedDatabase::handoffs() const {
  std::vector<HandoffRecord> out;
  out.reserve(image_.handoffs.size());
  for (const auto& [id, record] : image_.handoffs) out.push_back(record);
  return out;
}

// ---------------------------------------------------------------------------
// Contention model
// ---------------------------------------------------------------------------

std::uint64_t ShardedDatabase::op_count() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.ops;
  return total;
}

std::vector<std::uint64_t> ShardedDatabase::shard_op_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) out.push_back(shard.ops);
  return out;
}

}  // namespace gpunion::db
