#include "db/ledger_wal.h"

#include <algorithm>

namespace gpunion::db {

bool erase_first_row(QueueTable& queue, std::string_view job_id) {
  for (auto bucket = queue.begin(); bucket != queue.end(); ++bucket) {
    auto& rows = bucket->second;
    for (auto it = rows.begin(); it != rows.end(); ++it) {
      if (it->second.job_id != job_id) continue;
      rows.erase(it);
      if (rows.empty()) queue.erase(bucket);
      return true;
    }
  }
  return false;
}

std::size_t queue_rows(const QueueTable& queue) {
  std::size_t n = 0;
  for (const auto& [priority, rows] : queue) n += rows.size();
  return n;
}

namespace {

/// Applies one payload; `seq` keys the provenance rows.
struct ImageWriter {
  TableImage& image;
  std::uint64_t seq;

  void operator()(const NodeRecord& row) const {
    image.nodes[row.machine_id] = row;
  }
  void operator()(const NodeStatusChange& change) const {
    auto it = image.nodes.find(change.machine_id);
    if (it != image.nodes.end()) it->second.status = change.status;
  }
  void operator()(const HeartbeatTouches& touches) const {
    for (const auto& [machine_id, at] : touches.rows) {
      auto it = image.nodes.find(machine_id);
      if (it == image.nodes.end()) continue;
      it->second.last_heartbeat = std::max(it->second.last_heartbeat, at);
    }
  }
  void operator()(const AllocationRecord& row) const {
    image.allocations[row.allocation_id] = row;
    image.next_allocation_id =
        std::max(image.next_allocation_id, row.allocation_id + 1);
  }
  void operator()(const AllocationClose& close) const {
    auto it = image.allocations.find(close.allocation_id);
    if (it != image.allocations.end() &&
        it->second.outcome == AllocationOutcome::kRunning) {
      it->second.outcome = close.outcome;
      it->second.ended_at = close.at;
    }
  }
  void operator()(const QueuedRequest& queued) const {
    image.queue[queued.request.priority][queued.stamp] = queued.request;
    image.queue_back_seq = std::max(image.queue_back_seq, queued.stamp);
    image.queue_front_seq = std::min(image.queue_front_seq, queued.stamp);
  }
  void operator()(const RequestRemoval& removal) const {
    (void)erase_first_row(image.queue, removal.job_id);
  }
  void operator()(const JobProvenance& row) const {
    // Keyed by WAL seq: materializing in key order reproduces the global
    // append order of the live provenance log.
    image.provenance[seq] = row;
  }
  void operator()(const JobStateRecord& row) const {
    image.job_states[row.spec.id] = row;
  }
  void operator()(const JobStateErase& erase) const {
    image.job_states.erase(erase.job_id);
  }
  void operator()(const JournalPut& put) const {
    image.journal[put.key] = put.values;
  }
  void operator()(const ForwardStateRecord& row) const {
    image.forwards[row.spec.id] = row;
  }
  void operator()(const ForwardStateErase& erase) const {
    image.forwards.erase(erase.job_id);
  }
  void operator()(const HandoffRecord& row) const {
    image.handoffs[row.job_id] = row;
  }
};

}  // namespace

void apply_to_image(TableImage& image, const WalRecord& record) {
  std::visit(ImageWriter{image, record.seq}, record.payload);
}

std::uint64_t LedgerWal::append(WalRecord record) {
  record.seq = next_seq_++;
  records_.push_back(std::move(record));
  ++stats_.appended;
  stats_.max_depth = std::max(stats_.max_depth, records_.size());
  return records_.back().seq;
}

void LedgerWal::mark_applied(std::size_t shard, std::uint64_t seq) {
  applied_[shard] = std::max(applied_[shard], seq);
}

bool LedgerWal::behind(std::size_t shard) const {
  return std::ranges::any_of(records_, [&](const WalRecord& record) {
    return record.shard == shard && record.seq > applied_[shard];
  });
}

std::size_t LedgerWal::shards_behind() const {
  std::size_t n = 0;
  for (std::size_t shard = 0; shard < applied_.size(); ++shard) {
    if (behind(shard)) ++n;
  }
  return n;
}

std::size_t LedgerWal::truncate_applied() {
  std::size_t dropped = 0;
  while (!records_.empty() &&
         records_.front().seq <= applied_[records_.front().shard]) {
    records_.pop_front();
    ++dropped;
  }
  stats_.truncated += dropped;
  return dropped;
}

void LedgerWal::note_recovery(std::uint64_t replayed) {
  ++stats_.recoveries;
  stats_.replayed += replayed;
}

}  // namespace gpunion::db
