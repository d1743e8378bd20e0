#include "db/ledger_wal.h"

#include <algorithm>

namespace gpunion::db {

std::size_t TableImage::queue_rows() const {
  std::size_t n = 0;
  for (const auto& [priority, bucket] : queue) n += bucket.size();
  return n;
}

void apply_to_image(TableImage& image, const WalRecord& record) {
  switch (record.op) {
    case WalOp::kUpsertNode:
      image.nodes[record.key] = record.node;
      break;
    case WalOp::kSetNodeStatus: {
      auto it = image.nodes.find(record.key);
      if (it != image.nodes.end()) it->second.status = record.status;
      break;
    }
    case WalOp::kTouchHeartbeatBatch:
      for (const auto& [machine_id, at] : record.batch_rows) {
        auto it = image.nodes.find(machine_id);
        if (it == image.nodes.end()) continue;
        it->second.last_heartbeat = std::max(it->second.last_heartbeat, at);
      }
      break;
    case WalOp::kOpenAllocation:
      image.allocations[record.allocation.allocation_id] = record.allocation;
      image.next_allocation_id = std::max(
          image.next_allocation_id, record.allocation.allocation_id + 1);
      break;
    case WalOp::kCloseAllocation: {
      auto it = image.allocations.find(record.allocation_id);
      if (it != image.allocations.end() &&
          it->second.outcome == AllocationOutcome::kRunning) {
        it->second.outcome = record.outcome;
        it->second.ended_at = record.at;
      }
      break;
    }
    case WalOp::kEnqueue:
      image.queue[record.request.priority][record.queue_seq] = record.request;
      image.queue_back_seq = std::max(image.queue_back_seq, record.queue_seq);
      image.queue_front_seq =
          std::min(image.queue_front_seq, record.queue_seq);
      break;
    case WalOp::kPop: {
      // The live take removed the job's first row in (priority desc, seq
      // asc) order, which is its first row in the bucket it names.
      auto bucket = image.queue.find(record.priority);
      if (bucket == image.queue.end()) break;
      for (auto it = bucket->second.begin(); it != bucket->second.end();
           ++it) {
        if (it->second.job_id == record.key) {
          bucket->second.erase(it);
          break;
        }
      }
      if (bucket->second.empty()) image.queue.erase(bucket);
      break;
    }
    case WalOp::kRemoveRequest:
      // Same scan order as the live removal: priority desc, seq asc.
      for (auto bucket = image.queue.begin(); bucket != image.queue.end();
           ++bucket) {
        bool removed = false;
        for (auto it = bucket->second.begin(); it != bucket->second.end();
             ++it) {
          if (it->second.job_id == record.key) {
            bucket->second.erase(it);
            removed = true;
            break;
          }
        }
        if (removed) {
          if (bucket->second.empty()) image.queue.erase(bucket);
          break;
        }
      }
      break;
    case WalOp::kProvenance:
      // Keyed by WAL seq: materializing in key order reproduces the global
      // append order of the live provenance log.
      image.provenance[record.seq] = record.provenance;
      break;
    case WalOp::kMetric: {
      auto& points = image.metrics[record.key];
      points.push_back(MetricPoint{record.at, record.value});
      while (points.size() > kHistoryLimit) points.pop_front();
      break;
    }
    case WalOp::kPutJobState:
      image.job_states[record.key] = record.job_state;
      break;
    case WalOp::kEraseJobState:
      image.job_states.erase(record.key);
      break;
    case WalOp::kJournalPut:
      image.journal[record.key] = record.journal;
      break;
    case WalOp::kPutForward:
      image.forwards[record.key] = record.forward;
      break;
    case WalOp::kEraseForward:
      image.forwards.erase(record.key);
      break;
    case WalOp::kPutHandoff:
      image.handoffs[record.key] = record.handoff;
      break;
  }
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
