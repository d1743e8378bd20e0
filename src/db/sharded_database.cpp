#include "db/sharded_database.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/ids.h"

namespace gpunion::db {

ShardedDatabase::ShardedDatabase(DbConfig config)
    : ledger_log_(std::max<std::size_t>(1, config.flush_threshold)),
      wal_(kShardCount) {}

std::size_t ShardedDatabase::route(std::string_view key) const {
  // FNV-1a: deterministic across platforms and runs (std::hash is not
  // guaranteed to be), so shard ownership is reproducible.
  return static_cast<std::size_t>(util::fnv1a64(key) % kShardCount);
}

void ShardedDatabase::charge(std::size_t shard) const {
  ++shard_ops_[shard];
  ++sync_ops_;
}

void ShardedDatabase::charge_all() const {
  for (std::size_t shard = 0; shard < kShardCount; ++shard) charge(shard);
}

std::size_t ShardedDatabase::rotate() const {
  const std::size_t shard = rotate_cursor_;
  rotate_cursor_ = (rotate_cursor_ + 1) % kShardCount;
  return shard;
}

void ShardedDatabase::absorb(LedgerOpKind kind, std::size_t shard,
                             std::string key, std::uint64_t allocation_id,
                             util::SimTime at) {
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
        ++shard_ops_[shard];
      });
  // Group commit advances each shard's durable image past its pending WAL
  // records (in shard order: image containers are keyed, so per-shard
  // application order cannot change the result).  Armed faults
  // model a failed shard commit (records stay in the WAL for the next
  // flush) or a crash mid-group-commit (stop early, no truncation — the
  // torn state recovery has to heal).
  const std::uint64_t upto = wal_.last_seq();
  flush_interrupted_ = false;
  std::size_t advanced = 0;  // behind shards advanced, while a tear is armed
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    const bool counts_toward_tear =
        armed_flush_crash_ >= 0 && wal_.behind(shard);
    if (counts_toward_tear &&
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
    if (counts_toward_tear) ++advanced;
  }
  armed_flush_crash_ = -1;
  if (!flush_interrupted_) wal_.truncate_applied();
  return committed;
}

void ShardedDatabase::wal_append(std::size_t shard, WalPayload payload,
                                 bool deferred) {
  const std::uint64_t seq =
      wal_.append(WalRecord{0, shard, std::move(payload)});
  if (deferred) return;  // durable at the next group commit
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
  if (shard < kShardCount) armed_commit_failures_[shard] = true;
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
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    wal_.mark_applied(shard, last);
  }
  wal_.truncate_applied();
  wal_.note_recovery(report.replayed);
  // Disarm any pending faults: they belonged to the crashed incarnation.
  armed_commit_failures_.fill(false);
  armed_flush_crash_ = -1;
  flush_interrupted_ = false;
  rebuild_live_tables();
  report.nodes = image_.nodes.size();
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
  ledger_.clear();
  ledger_index_.clear();
  for (const auto& [id, record] : image_.allocations) {
    ledger_index_[id] = ledger_.size();
    ledger_.push_back(record);  // id order == open order
  }
  next_allocation_id_ = image_.next_allocation_id;
  queue_ = image_.queue;
  queued_rows_ = queue_rows(queue_);
  queue_back_seq_ = image_.queue_back_seq;
  queue_front_seq_ = image_.queue_front_seq;
  provenance_log_.clear();
  provenance_index_.clear();
  for (const auto& [seq, row] : image_.provenance) {
    provenance_index_[row.job_id] = provenance_log_.size();
    provenance_log_.push_back(row);  // WAL-seq order == append order
  }
}

// ---------------------------------------------------------------------------
// Node registry (sharded by machine id; every write synchronous, so reads
// come straight from the durable image)
// ---------------------------------------------------------------------------

util::Status ShardedDatabase::upsert_node(NodeRecord record) {
  // The round trip happens before validation: a rejected write still paid.
  const std::size_t shard = shard_for_node(record.machine_id);
  charge(shard);
  if (record.machine_id.empty()) {
    return util::invalid_argument_error("node record requires a machine id");
  }
  wal_append(shard, std::move(record), /*deferred=*/false);
  return util::Status();
}

util::StatusOr<NodeRecord> ShardedDatabase::node(
    const std::string& machine_id) const {
  charge(shard_for_node(machine_id));
  auto it = image_.nodes.find(machine_id);
  if (it == image_.nodes.end()) {
    return util::not_found_error("node " + machine_id + " not registered");
  }
  return it->second;
}

util::Status ShardedDatabase::set_node_status(const std::string& machine_id,
                                              NodeStatus s) {
  const std::size_t shard = shard_for_node(machine_id);
  charge(shard);
  if (!image_.nodes.contains(machine_id)) {
    return util::not_found_error("node " + machine_id + " not registered");
  }
  wal_append(shard, NodeStatusChange{machine_id, s}, /*deferred=*/false);
  return util::Status();
}

std::size_t ShardedDatabase::touch_heartbeats(
    const std::vector<std::pair<std::string, util::SimTime>>& batch) {
  // One batched write per shard owning at least one row of the batch (the
  // PR 2 coalescing contract, now multi-writer).  An empty batch is still
  // one round trip.
  if (batch.empty()) {
    charge(rotate());
    return 0;
  }
  // Rows grouped per shard: one batched write AND one WAL record per
  // touched shard.
  std::array<HeartbeatTouches, kShardCount> by_shard;
  std::size_t applied = 0;
  for (const auto& [machine_id, at] : batch) {
    by_shard[shard_for_node(machine_id)].rows.emplace_back(machine_id, at);
    if (image_.nodes.contains(machine_id)) ++applied;
  }
  for (std::size_t shard = 0; shard < kShardCount; ++shard) {
    if (by_shard[shard].rows.empty()) continue;
    charge(shard);
    wal_append(shard, std::move(by_shard[shard]), /*deferred=*/false);
  }
  return applied;
}

std::vector<NodeRecord> ShardedDatabase::nodes() const {
  // Scatter-gather: every shard serves its partition of the scan.
  charge_all();
  std::vector<NodeRecord> out;
  out.reserve(image_.nodes.size());
  for (const auto& [id, record] : image_.nodes) out.push_back(record);
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
  ledger_index_[id] = ledger_.size();
  ledger_.push_back(record);
  wal_append(shard, std::move(record), /*deferred=*/true);
  absorb(LedgerOpKind::kAllocationOpen, shard, job_id, id, at);
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
  wal_append(shard, AllocationClose{allocation_id, outcome, at},
             /*deferred=*/true);
  absorb(LedgerOpKind::kAllocationClose, shard, record.job_id, allocation_id,
         at);
  return util::Status();
}

std::vector<AllocationRecord> ShardedDatabase::allocations_for_job(
    const std::string& job_id) const {
  // A by-job query over a node-partitioned table: scatter to every shard.
  charge_all();
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
  enqueue_at(std::move(request), ++queue_back_seq_);
}

void ShardedDatabase::enqueue_request_front(PendingRequest request) {
  enqueue_at(std::move(request), --queue_front_seq_);
}

void ShardedDatabase::enqueue_at(PendingRequest request, std::int64_t stamp) {
  const std::size_t shard = shard_for_job(request.job_id);
  wal_append(shard, QueuedRequest{request, stamp}, /*deferred=*/true);
  absorb(LedgerOpKind::kEnqueue, shard, request.job_id, 0,
         request.submitted_at);
  queue_[request.priority][stamp] = std::move(request);
  ++queued_rows_;
}

std::vector<PendingRequest> ShardedDatabase::pending_requests() const {
  // Scatter-gather: every shard serves its rows of the ordered read.
  charge_all();
  std::vector<PendingRequest> out;
  out.reserve(queued_rows_);
  for (const auto& [priority, rows] : queue_) {
    for (const auto& [stamp, request] : rows) out.push_back(request);
  }
  return out;
}

bool ShardedDatabase::erase_queued(const std::string& job_id) {
  if (!erase_first_row(queue_, job_id)) return false;
  --queued_rows_;
  wal_append(shard_for_job(job_id), RequestRemoval{job_id},
             /*deferred=*/false);
  return true;
}

bool ShardedDatabase::take_request(const std::string& job_id) {
  // One synchronous round trip that any writer lane can serve
  // (multi-writer), so the load rotates; a take served by a shard other
  // than the row's owner steals.
  const std::size_t server = rotate();
  charge(server);
  if (!erase_queued(job_id)) return false;
  if (shard_for_job(job_id) == server) {
    ++local_pops_;
  } else {
    ++stolen_pops_;
  }
  return true;
}

bool ShardedDatabase::remove_request(const std::string& job_id) {
  // Like take_request, a synchronous read-modify-write: the found/not-found
  // answer is consumed immediately, so the round trip to the owning shard
  // cannot be deferred (and a miss still paid for it).
  charge(shard_for_job(job_id));
  return erase_queued(job_id);
}

std::size_t ShardedDatabase::queue_depth() const {
  // Depth probe (heartbeat path): a metadata read any lane can answer.
  // The row count is maintained on mutation, so the probe is O(1).
  charge(rotate());
  return queued_rows_;
}

// ---------------------------------------------------------------------------
// Provenance (sharded by job id; write-behind)
// ---------------------------------------------------------------------------

void ShardedDatabase::record_provenance(JobProvenance provenance) {
  const std::size_t shard = shard_for_job(provenance.job_id);
  wal_append(shard, provenance, /*deferred=*/true);
  absorb(LedgerOpKind::kProvenance, shard, provenance.job_id, 0,
         provenance.recorded_at);
  provenance_index_[provenance.job_id] = provenance_log_.size();
  provenance_log_.push_back(std::move(provenance));
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
  const std::size_t shard = shard_for_job(record.spec.id);
  wal_append(shard, std::move(record), /*deferred=*/false);
}

bool ShardedDatabase::erase_job_state(const std::string& job_id) {
  if (!image_.job_states.contains(job_id)) return false;
  wal_append(shard_for_job(job_id), JobStateErase{job_id},
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
  wal_append(route(key), JournalPut{key, std::move(values)},
             /*deferred=*/false);
}

const std::vector<std::int64_t>* ShardedDatabase::journal(
    const std::string& key) const {
  auto it = image_.journal.find(key);
  return it == image_.journal.end() ? nullptr : &it->second;
}

void ShardedDatabase::put_forward_state(ForwardStateRecord record) {
  const std::size_t shard = shard_for_job(record.spec.id);
  wal_append(shard, std::move(record), /*deferred=*/false);
}

bool ShardedDatabase::erase_forward_state(const std::string& job_id) {
  if (!image_.forwards.contains(job_id)) return false;
  wal_append(shard_for_job(job_id), ForwardStateErase{job_id},
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
  const std::size_t shard = shard_for_job(record.job_id);
  wal_append(shard, std::move(record), /*deferred=*/false);
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
  for (const std::uint64_t ops : shard_ops_) total += ops;
  return total;
}

std::vector<std::uint64_t> ShardedDatabase::shard_op_counts() const {
  return {shard_ops_.begin(), shard_ops_.end()};
}

}  // namespace gpunion::db
