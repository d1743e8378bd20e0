// LedgerWal + ShardedDatabase crash recovery.
//
// The WAL contract under test: every mutation is appended to the durable
// log BEFORE its caller sees the ack, per-shard images advance only at
// commit time, and crash_and_recover() — image plus idempotent replay of
// WAL-ahead-of-shard records — rebuilds tables that equal the pre-crash
// live tables EXACTLY.  The oracle for "exactly" is a twin database fed
// the identical op sequence that never crashes; any divergence is a lost
// or duplicated acked write.  Also covers the armed fault points
// (skipped shard commit, torn group commit) and the contention-aware
// adaptive flush pacing.
#include "db/ledger_wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/sharded_database.h"
#include "tests/db/take_front.h"
#include "util/rng.h"

namespace gpunion::db {
namespace {

NodeRecord node(const std::string& id) {
  NodeRecord record;
  record.machine_id = id;
  record.hostname = "host-" + id;
  record.gpu_count = 2;
  return record;
}

DbConfig wal_config(std::size_t threshold = 1000) {
  DbConfig config;
  config.shard_count = 4;
  config.write_behind = true;
  config.flush_threshold = threshold;
  return config;
}

/// A key routed to the requested shard (by probing the deterministic hash).
std::string key_on_shard(const ShardedDatabase& db, std::size_t shard) {
  for (int i = 0; i < 256; ++i) {
    const std::string candidate = "key-" + std::to_string(i);
    if (db.shard_for_job(candidate) == shard) return candidate;
  }
  ADD_FAILURE() << "no key found for shard " << shard;
  return "key-0";
}

/// The pending queue as "job@priority" rows, in scheduling order.
std::vector<std::string> queue_order(const ShardedDatabase& db) {
  std::vector<std::string> out;
  for (const PendingRequest& request : db.pending_requests()) {
    out.push_back(request.job_id + "@" + std::to_string(request.priority));
  }
  return out;
}

/// Full-table equality between two databases (the subject crashed and
/// recovered mid-sequence; the oracle never did).
void expect_tables_equal(ShardedDatabase& subject, ShardedDatabase& oracle,
                         const std::string& context) {
  SCOPED_TRACE(context);
  // Node registry.
  const auto subject_nodes = subject.nodes();
  const auto oracle_nodes = oracle.nodes();
  ASSERT_EQ(subject_nodes.size(), oracle_nodes.size());
  for (const NodeRecord& expected : oracle_nodes) {
    auto got = subject.node(expected.machine_id);
    ASSERT_TRUE(got.ok()) << expected.machine_id;
    EXPECT_EQ(got->hostname, expected.hostname);
    EXPECT_EQ(got->status, expected.status);
    EXPECT_EQ(got->last_heartbeat, expected.last_heartbeat);
  }
  // Allocation ledger: recovery re-materializes it from allocation-id keys,
  // and ids are assigned in insertion order, so even the ORDER must match.
  const auto& subject_ledger = subject.allocation_ledger();
  const auto& oracle_ledger = oracle.allocation_ledger();
  ASSERT_EQ(subject_ledger.size(), oracle_ledger.size());
  for (std::size_t i = 0; i < oracle_ledger.size(); ++i) {
    EXPECT_EQ(subject_ledger[i].allocation_id, oracle_ledger[i].allocation_id);
    EXPECT_EQ(subject_ledger[i].job_id, oracle_ledger[i].job_id);
    EXPECT_EQ(subject_ledger[i].machine_id, oracle_ledger[i].machine_id);
    EXPECT_EQ(subject_ledger[i].outcome, oracle_ledger[i].outcome);
  }
  // Pending queue, in order (the ordered read leaves it as it is).
  EXPECT_EQ(subject.queue_depth(), oracle.queue_depth());
  EXPECT_EQ(queue_order(subject), queue_order(oracle));
  // Provenance log.
  EXPECT_EQ(subject.provenance_log().size(), oracle.provenance_log().size());
  // Durable control-plane tables.
  const auto subject_states = subject.job_states();
  const auto oracle_states = oracle.job_states();
  ASSERT_EQ(subject_states.size(), oracle_states.size());
  for (const JobStateRecord& expected : oracle_states) {
    const JobStateRecord* got = subject.job_state(expected.spec.id);
    ASSERT_NE(got, nullptr) << expected.spec.id;
    EXPECT_EQ(got->phase, expected.phase);
    EXPECT_EQ(got->node, expected.node);
    EXPECT_EQ(got->open_allocation, expected.open_allocation);
  }
  EXPECT_EQ(subject.forward_states().size(), oracle.forward_states().size());
  EXPECT_EQ(subject.handoffs().size(), oracle.handoffs().size());
}

TEST(LedgerWalTest, AppendsBeforeAckAndTruncatesAtFlush) {
  ShardedDatabase db(wal_config());
  ASSERT_TRUE(db.upsert_node(node("m-0")).is_ok());
  // The synchronous registry write advanced its shard image at call time,
  // so nothing is pending in the log.
  EXPECT_EQ(db.wal().depth(), 0u);
  EXPECT_EQ(db.wal().stats().appended, 1u);

  // Ledgered (write-behind) mutations sit in the WAL until the group
  // commit: acked to the caller, durable only as log records.
  const std::uint64_t allocation =
      db.open_allocation("job-a", "m-0", {0}, 1.0);
  db.enqueue_request({"job-b", 0, 1.0});
  db.record_provenance({"job-a", "west", "west", 1.0, ""});
  EXPECT_EQ(db.wal().depth(), 3u);
  EXPECT_EQ(db.durable_image().allocations.count(allocation), 0u)
      << "image advanced before the group commit";

  // The group commit advances every touched shard and truncates the
  // applied prefix.
  EXPECT_EQ(db.flush_ledger(), 3u);
  EXPECT_EQ(db.wal().depth(), 0u);
  EXPECT_EQ(db.wal().stats().truncated, db.wal().stats().appended);
  EXPECT_EQ(db.durable_image().allocations.count(allocation), 1u);
}

TEST(LedgerWalTest, RecoveryReplaysExactlyTheUnflushedSuffix) {
  ShardedDatabase db(wal_config());
  ASSERT_TRUE(db.upsert_node(node("m-0")).is_ok());
  db.open_allocation("job-a", "m-0", {0}, 1.0);
  db.enqueue_request({"job-b", 0, 1.0});
  db.flush_ledger();
  // Two more acked-but-unflushed mutations: the crash exposure.
  db.open_allocation("job-c", "m-0", {1}, 2.0);
  db.record_provenance({"job-c", "west", "west", 2.0, ""});
  ASSERT_EQ(db.wal().depth(), 2u);

  const RecoveryReport report = db.crash_and_recover();
  EXPECT_EQ(report.wal_depth_at_crash, 2u);
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(report.skipped_applied, 0u);
  EXPECT_EQ(report.allocations, 2u);
  EXPECT_EQ(report.queue_rows, 1u);
  // The acked writes survived the crash.
  EXPECT_EQ(db.allocations_for_job("job-c").size(), 1u);
  EXPECT_NE(db.provenance("job-c"), nullptr);
  EXPECT_EQ(db.queue_depth(), 1u);
  EXPECT_EQ(db.wal().stats().recoveries, 1u);
  EXPECT_EQ(db.wal().stats().replayed, 2u);
}

TEST(LedgerWalTest, SkippedShardCommitRetriesAtNextFlush) {
  ShardedDatabase db(wal_config());
  const std::string key = key_on_shard(db, 2);
  ASSERT_TRUE(db.upsert_node(node("m-0")).is_ok());
  db.enqueue_request({key, 0, 1.0});  // job-keyed: owned by shard 2
  db.arm_commit_failure(2);
  db.flush_ledger();
  EXPECT_EQ(db.commit_failures(), 1u);
  // The record stayed in the log (its shard never applied it) and the
  // caller-visible table is untouched.
  EXPECT_GE(db.wal().depth(), 1u);
  EXPECT_EQ(db.queue_depth(), 1u);
  // The next flush is the retry.
  db.flush_ledger();
  EXPECT_EQ(db.wal().depth(), 0u);
  EXPECT_EQ(db.durable_image().queue_rows(), 1u);
}

TEST(LedgerWalTest, TornGroupCommitHealsIdempotently) {
  ShardedDatabase subject(wal_config());
  ShardedDatabase oracle(wal_config());
  // One ledgered row per shard, so the torn commit genuinely tears.
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const std::string key = key_on_shard(subject, shard);
    subject.enqueue_request({key, 0, 1.0});
    oracle.enqueue_request({key, 0, 1.0});
  }
  // Stop the group commit after two shard images advanced; the WAL is
  // deliberately NOT truncated — the exact torn state a crash leaves.
  subject.arm_flush_crash(2);
  subject.flush_ledger();
  ASSERT_TRUE(subject.flush_interrupted());
  ASSERT_EQ(subject.wal().depth(), 4u);

  const RecoveryReport report = subject.crash_and_recover();
  // Replay walked all four records but applied only the ones ahead of
  // their shard's watermark — idempotence across the tear.
  EXPECT_EQ(report.wal_depth_at_crash, 4u);
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(report.skipped_applied, 2u);
  oracle.flush_ledger();
  expect_tables_equal(subject, oracle, "after torn-commit recovery");
}

TEST(LedgerWalTest, TakeFromTheMiddleIsDurableAndKeepsTheOrder) {
  // The scheduling pass takes the requests it dispatches, wherever they
  // sit: blocked requests ahead of them keep their places.
  ShardedDatabase subject(wal_config());
  ShardedDatabase oracle(wal_config());
  for (ShardedDatabase* db : {&subject, &oracle}) {
    db->enqueue_request({"low-1", 0, 1.0});
    db->enqueue_request({"high-1", 5, 2.0});
    db->enqueue_request({"low-2", 0, 3.0});
    db->enqueue_request_front({"displaced", 0, 4.0});
    db->enqueue_request({"high-2", 5, 5.0});
    ASSERT_EQ(queue_order(*db),
              (std::vector<std::string>{"high-1@5", "high-2@5", "displaced@0",
                                        "low-1@0", "low-2@0"}));
    EXPECT_TRUE(db->take_request("high-2"));
    EXPECT_TRUE(db->take_request("low-1"));
    EXPECT_FALSE(db->take_request("low-1"));
    EXPECT_EQ(queue_order(*db),
              (std::vector<std::string>{"high-1@5", "displaced@0", "low-2@0"}));
  }
  // The takes (kPop records) must survive the crash, and the rows they
  // skipped must come back in their places.
  const RecoveryReport report = subject.crash_and_recover();
  EXPECT_EQ(report.queue_rows, 3u);
  expect_tables_equal(subject, oracle, "after recovery");
  oracle.flush_ledger();
  expect_tables_equal(subject, oracle, "after the oracle's flush");
}

// Randomized subject-vs-oracle sweep: identical op sequences, with the
// subject crashing (including via the armed fault points) at random cuts.
// Any divergence means an acked mutation was lost or double-applied.
TEST(LedgerWalTest, RandomizedCrashEqualsOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    ShardedDatabase subject(wal_config(/*threshold=*/24));
    ShardedDatabase oracle(wal_config(/*threshold=*/24));
    std::vector<std::uint64_t> open_allocations;
    int next_id = 0;
    double now = 0;
    for (int op = 0; op < 120; ++op) {
      now += 0.25;
      switch (rng.uniform_int(0, 7)) {
        case 0: {
          const std::string id = "m-" + std::to_string(rng.uniform_int(0, 9));
          ASSERT_TRUE(subject.upsert_node(node(id)).is_ok());
          ASSERT_TRUE(oracle.upsert_node(node(id)).is_ok());
          break;
        }
        case 1: {
          const std::string job = "job-" + std::to_string(next_id++);
          const std::string machine =
              "m-" + std::to_string(rng.uniform_int(0, 9));
          open_allocations.push_back(
              subject.open_allocation(job, machine, {0}, now));
          ASSERT_EQ(oracle.open_allocation(job, machine, {0}, now),
                    open_allocations.back());
          break;
        }
        case 2: {
          if (open_allocations.empty()) break;
          const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(open_allocations.size() - 1)));
          const std::uint64_t id = open_allocations[pick];
          open_allocations.erase(open_allocations.begin() +
                                 static_cast<std::ptrdiff_t>(pick));
          ASSERT_TRUE(subject
                          .close_allocation(
                              id, AllocationOutcome::kCompleted, now)
                          .is_ok());
          ASSERT_TRUE(oracle
                          .close_allocation(
                              id, AllocationOutcome::kCompleted, now)
                          .is_ok());
          break;
        }
        case 3: {
          const PendingRequest request{
              "job-" + std::to_string(next_id++),
              static_cast<int>(rng.uniform_int(0, 2)), now};
          subject.enqueue_request(request);
          oracle.enqueue_request(request);
          break;
        }
        case 4: {
          const auto a = take_front(subject);
          const auto b = take_front(oracle);
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a.has_value()) {
            EXPECT_EQ(a->job_id, b->job_id);
          }
          break;
        }
        case 5: {
          JobStateRecord record;
          record.spec.id = "job-" + std::to_string(rng.uniform_int(0, 30));
          record.phase =
              static_cast<workload::JobPhase>(rng.uniform_int(0, 5));
          record.node = "m-" + std::to_string(rng.uniform_int(0, 9));
          subject.put_job_state(record);
          oracle.put_job_state(record);
          break;
        }
        case 6: {
          std::vector<std::int64_t> blob{
              rng.uniform_int(0, 1000), rng.uniform_int(0, 1000)};
          subject.put_journal("stats", blob);
          oracle.put_journal("stats", std::move(blob));
          break;
        }
        default: {
          subject.record_provenance(
              {"job-" + std::to_string(rng.uniform_int(0, 30)), "west",
               "east", now, "west>east"});
          oracle.record_provenance(
              {"job-" + std::to_string(rng.uniform_int(0, 30)), "west",
               "east", now, "west>east"});
          break;
        }
      }
      // Random cuts: flushes, armed faults, crashes — subject only.  The
      // flush on both sides keeps the THRESHOLD trigger aligned, but the
      // subject's extra faults/crashes must not matter for table contents.
      if (rng.bernoulli(0.10)) {
        subject.flush_ledger();
        oracle.flush_ledger();
      }
      if (rng.bernoulli(0.08)) {
        if (rng.bernoulli(0.3)) {
          subject.arm_commit_failure(static_cast<std::size_t>(
              rng.uniform_int(0, subject.shard_count() - 1)));
          subject.flush_ledger();
        } else if (rng.bernoulli(0.3)) {
          subject.arm_flush_crash(static_cast<std::size_t>(
              rng.uniform_int(0, subject.shard_count() - 1)));
          subject.flush_ledger();
        }
        (void)subject.crash_and_recover();
        expect_tables_equal(subject, oracle,
                            "after crash at op " + std::to_string(op));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    (void)subject.crash_and_recover();
    expect_tables_equal(subject, oracle, "final");
    // Drain both queues and compare the exact take order.
    while (true) {
      const auto a = take_front(subject);
      const auto b = take_front(oracle);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) break;
      EXPECT_EQ(a->job_id, b->job_id);
      EXPECT_EQ(a->priority, b->priority);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace gpunion::db
