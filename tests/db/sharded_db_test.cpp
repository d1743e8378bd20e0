// ShardedDatabase: deterministic shard routing, per-shard op accounting,
// read-your-writes through the write-behind ledger, flush-on-threshold vs
// flush-on-interval triggers, and exact legacy-mode equivalence against the
// single-writer SystemDatabase over an identical op sequence.
#include "db/sharded_database.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/database.h"
#include "tests/db/take_front.h"

namespace gpunion::db {
namespace {

NodeRecord node(const std::string& id) {
  NodeRecord record;
  record.machine_id = id;
  record.hostname = "host-" + id;
  record.gpu_count = 1;
  return record;
}

DbConfig sharded_config(int shards = 4, std::size_t threshold = 1000) {
  DbConfig config;
  config.shard_count = shards;
  config.write_behind = true;
  config.flush_threshold = threshold;
  return config;
}

DbConfig legacy_config() {
  DbConfig config;
  config.shard_count = 1;
  config.write_behind = false;
  return config;
}

TEST(ShardedDbTest, RoutingIsDeterministicAndInRange) {
  ShardedDatabase a(sharded_config());
  ShardedDatabase b(sharded_config());
  bool spread = false;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "m-" + std::to_string(i);
    const std::size_t shard = a.shard_for_node(key);
    EXPECT_LT(shard, 4u);
    // Same key, same shard — across calls and across instances.
    EXPECT_EQ(shard, a.shard_for_node(key));
    EXPECT_EQ(shard, b.shard_for_node(key));
    // Job- and node-keyed rows share the hash, so a job id routes the same
    // wherever it appears.
    EXPECT_EQ(a.shard_for_job(key), shard);
    if (shard != a.shard_for_node("m-0")) spread = true;
  }
  EXPECT_TRUE(spread) << "64 keys all landed on one shard";
}

TEST(ShardedDbTest, PerShardOpAccounting) {
  // Registry/heartbeat ops charge synchronously even under write-behind.
  ShardedDatabase sharded(sharded_config());

  // Find two machine ids living on different shards.
  std::string first = "m-0";
  std::string second;
  for (int i = 1; i < 64 && second.empty(); ++i) {
    const std::string candidate = "m-" + std::to_string(i);
    if (sharded.shard_for_node(candidate) != sharded.shard_for_node(first)) {
      second = candidate;
    }
  }
  ASSERT_FALSE(second.empty());
  const std::size_t shard_a = sharded.shard_for_node(first);
  const std::size_t shard_b = sharded.shard_for_node(second);

  ASSERT_TRUE(sharded.upsert_node(node(first)).is_ok());
  EXPECT_EQ(sharded.shard_ops(shard_a), 1u);
  EXPECT_EQ(sharded.shard_ops(shard_b), 0u);
  ASSERT_TRUE(sharded.upsert_node(node(second)).is_ok());
  ASSERT_EQ(sharded.touch_heartbeats({{second, 5.0}}), 1u);
  EXPECT_EQ(sharded.shard_ops(shard_a), 1u);
  EXPECT_EQ(sharded.shard_ops(shard_b), 2u);
  // Rows are owned where the ops landed.
  EXPECT_GE(sharded.shard_rows(shard_a), 1u);
  EXPECT_GE(sharded.shard_rows(shard_b), 1u);
  // op_count() is the sum of the lanes.
  EXPECT_EQ(sharded.op_count(), 3u);

  // A batched heartbeat touch charges ONE op per shard in the batch.
  const std::uint64_t before_a = sharded.shard_ops(shard_a);
  const std::uint64_t before_b = sharded.shard_ops(shard_b);
  EXPECT_EQ(sharded.touch_heartbeats({{first, 10.0}, {second, 10.0}}), 2u);
  EXPECT_EQ(sharded.shard_ops(shard_a), before_a + 1);
  EXPECT_EQ(sharded.shard_ops(shard_b), before_b + 1);
}

TEST(ShardedDbTest, ReadYourWritesThroughUnflushedLedger) {
  ShardedDatabase database(sharded_config(4, /*threshold=*/1000));
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  const std::uint64_t ops_after_registry = database.op_count();

  // Per-decision mutations absorb into the ledger: no shard write yet.
  const auto alloc = database.open_allocation("job-1", "m-1", {0}, 10.0);
  database.enqueue_request({"job-2", 0, 11.0});
  database.record_provenance({"job-1", "alpha", "beta", 12.0, ""});
  EXPECT_EQ(database.op_count(), ops_after_registry)
      << "ledgered writes must not charge shards before the flush";
  EXPECT_EQ(database.ledger().pending(), 3u);

  // ...but every reader sees the ledgered state immediately.
  const auto rows = database.allocations_for_job("job-1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].allocation_id, alloc);
  EXPECT_EQ(rows[0].machine_id, "m-1");
  ASSERT_NE(database.provenance("job-1"), nullptr);
  EXPECT_EQ(database.provenance("job-1")->executing_region, "beta");
  EXPECT_EQ(database.queue_depth(), 1u);
  EXPECT_EQ(take_front(database)->job_id, "job-2");

  // Closing the still-unflushed allocation works (read-modify-write sees
  // the ledgered open).
  ASSERT_TRUE(
      database.close_allocation(alloc, AllocationOutcome::kCompleted, 20.0)
          .is_ok());

  // The flush group-commits and only then charges the owning shards.
  const std::uint64_t before_flush = database.op_count();
  const std::size_t pending = database.ledger().pending();
  EXPECT_GT(pending, 0u);
  EXPECT_EQ(database.flush_ledger(), pending);
  EXPECT_EQ(database.ledger().pending(), 0u);
  EXPECT_GT(database.op_count(), before_flush);
  // One commit per touched shard, never more than entries or shards.
  EXPECT_LE(database.op_count() - before_flush, pending);
  EXPECT_LE(database.op_count() - before_flush, 4u);
}

TEST(ShardedDbTest, ThresholdFlushVsIntervalFlush) {
  ShardedDatabase database(sharded_config(4, /*threshold=*/3));
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());

  // Two mutations sit below the threshold...
  (void)database.open_allocation("job-1", "m-1", {0}, 1.0);
  database.enqueue_request({"job-2", 0, 2.0});
  EXPECT_EQ(database.ledger().pending(), 2u);
  EXPECT_EQ(database.ledger().stats().threshold_flushes, 0u);
  // ...the third crosses it and flushes without any timer.
  database.record_provenance({"job-1", "alpha", "alpha", 3.0, ""});
  EXPECT_EQ(database.ledger().pending(), 0u);
  EXPECT_EQ(database.ledger().stats().threshold_flushes, 1u);
  EXPECT_EQ(database.ledger().stats().entries_flushed, 3u);

  // The interval trigger is the owner's timer calling flush_ledger.
  database.enqueue_request({"job-3", 0, 4.0});
  EXPECT_EQ(database.flush_ledger(FlushTrigger::kInterval), 1u);
  EXPECT_EQ(database.ledger().stats().interval_flushes, 1u);
  // An empty interval flush is a no-op, not a counted flush.
  EXPECT_EQ(database.flush_ledger(FlushTrigger::kInterval), 0u);
  EXPECT_EQ(database.ledger().stats().interval_flushes, 1u);
  EXPECT_EQ(database.ledger().stats().absorbed, 4u);
}

/// Drives one identical op sequence against any Database implementation.
void drive(Database& database) {
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-2")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-3")).is_ok());
  ASSERT_TRUE(
      database.set_node_status("m-3", NodeStatus::kUnavailable).is_ok());
  EXPECT_EQ(database.touch_heartbeats({{"m-1", 5.0}, {"m-2", 6.0}}), 2u);

  const auto a1 = database.open_allocation("job-1", "m-1", {0}, 10.0);
  const auto a2 = database.open_allocation("job-2", "m-2", {0}, 11.0, 0.25,
                                           /*interactive=*/true);
  ASSERT_TRUE(
      database.close_allocation(a1, AllocationOutcome::kCompleted, 20.0)
          .is_ok());
  ASSERT_TRUE(
      database.close_allocation(a2, AllocationOutcome::kMigrated, 21.0)
          .is_ok());
  (void)database.open_allocation("job-2", "m-1", {0}, 22.0);

  database.enqueue_request({"low", 0, 1.0});
  database.enqueue_request({"high", 5, 2.0});
  database.enqueue_request_front({"displaced", 0, 0.5});
  EXPECT_TRUE(database.remove_request("low"));
  EXPECT_FALSE(database.remove_request("ghost"));

  database.record_provenance({"job-2", "alpha", "beta", 30.0, ""});
  database.record_provenance({"job-2", "alpha", "gamma", 40.0, ""});
  database.record_metric("util", 1.0, 0.5);
  database.record_metric("util", 2.0, 0.75);
}

/// Final logical contents must be identical, field by field.
void expect_same_contents(Database& a, Database& b) {
  // Node registry.
  const auto nodes_a = a.nodes();
  const auto nodes_b = b.nodes();
  ASSERT_EQ(nodes_a.size(), nodes_b.size());
  for (std::size_t i = 0; i < nodes_a.size(); ++i) {
    EXPECT_EQ(nodes_a[i].machine_id, nodes_b[i].machine_id);
    EXPECT_EQ(nodes_a[i].hostname, nodes_b[i].hostname);
    EXPECT_EQ(nodes_a[i].status, nodes_b[i].status);
    EXPECT_DOUBLE_EQ(nodes_a[i].last_heartbeat, nodes_b[i].last_heartbeat);
  }
  // Allocation ledger — including ids (both stores assign sequentially in
  // op order).
  const auto& ledger_a = a.allocation_ledger();
  const auto& ledger_b = b.allocation_ledger();
  ASSERT_EQ(ledger_a.size(), ledger_b.size());
  for (std::size_t i = 0; i < ledger_a.size(); ++i) {
    EXPECT_EQ(ledger_a[i].allocation_id, ledger_b[i].allocation_id);
    EXPECT_EQ(ledger_a[i].job_id, ledger_b[i].job_id);
    EXPECT_EQ(ledger_a[i].machine_id, ledger_b[i].machine_id);
    EXPECT_EQ(ledger_a[i].outcome, ledger_b[i].outcome);
    EXPECT_DOUBLE_EQ(ledger_a[i].started_at, ledger_b[i].started_at);
    EXPECT_DOUBLE_EQ(ledger_a[i].ended_at, ledger_b[i].ended_at);
    EXPECT_DOUBLE_EQ(ledger_a[i].gpu_fraction, ledger_b[i].gpu_fraction);
    EXPECT_EQ(ledger_a[i].interactive, ledger_b[i].interactive);
  }
  // Provenance log.
  const auto& prov_a = a.provenance_log();
  const auto& prov_b = b.provenance_log();
  ASSERT_EQ(prov_a.size(), prov_b.size());
  for (std::size_t i = 0; i < prov_a.size(); ++i) {
    EXPECT_EQ(prov_a[i].job_id, prov_b[i].job_id);
    EXPECT_EQ(prov_a[i].origin_region, prov_b[i].origin_region);
    EXPECT_EQ(prov_a[i].executing_region, prov_b[i].executing_region);
  }
  // Metric series.
  EXPECT_EQ(a.series_names(), b.series_names());
  ASSERT_EQ(a.series("util").size(), b.series("util").size());
  // Queue: identical drain order empties both.
  while (true) {
    auto req_a = take_front(a);
    auto req_b = take_front(b);
    ASSERT_EQ(req_a.has_value(), req_b.has_value());
    if (!req_a.has_value()) break;
    EXPECT_EQ(req_a->job_id, req_b->job_id);
    EXPECT_EQ(req_a->priority, req_b->priority);
  }
}

TEST(ShardedDbTest, LegacyModeMatchesSingleWriterExactly) {
  SystemDatabase single;
  ShardedDatabase legacy(legacy_config());
  drive(single);
  drive(legacy);
  // Same contents AND the same op accounting: {1 shard, write-behind off}
  // IS the single-writer path.
  EXPECT_EQ(legacy.op_count(), single.op_count());
  EXPECT_EQ(legacy.ledger().stats().absorbed, 0u);
  expect_same_contents(single, legacy);
}

TEST(ShardedDbTest, ShardedWriteBehindConvergesToSameContents) {
  SystemDatabase single;
  ShardedDatabase sharded(sharded_config(4, /*threshold=*/5));
  drive(single);
  drive(sharded);
  (void)sharded.flush_ledger();  // settle the tail of the ledger
  EXPECT_EQ(sharded.ledger().pending(), 0u);
  // Far fewer charged writes, identical final state.
  EXPECT_LT(sharded.sync_op_count(), single.op_count());
  expect_same_contents(single, sharded);
}

}  // namespace
}  // namespace gpunion::db
