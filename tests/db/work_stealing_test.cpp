// Work-stealing pending-queue partitions: the sharded queue's ordered read
// must reproduce the legacy single-deque order exactly while spreading
// storage across per-shard partitions, and its takes count cross-partition
// steals.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/sharded_database.h"
#include "tests/db/take_front.h"

namespace gpunion::db {
namespace {

DbConfig sharded(int shards) {
  DbConfig config;
  config.shard_count = shards;
  config.write_behind = false;  // queue semantics only; no ledger noise
  return config;
}

/// Drains both databases and asserts the take sequences are identical.
void expect_same_drain(ShardedDatabase& a, ShardedDatabase& b) {
  for (;;) {
    std::optional<PendingRequest> req_a = take_front(a);
    std::optional<PendingRequest> req_b = take_front(b);
    ASSERT_EQ(req_a.has_value(), req_b.has_value());
    if (!req_a.has_value()) return;
    EXPECT_EQ(req_a->job_id, req_b->job_id);
    EXPECT_EQ(req_a->priority, req_b->priority);
  }
}

TEST(WorkStealingQueueTest, MatchesSingleShardOrderMixedPriorities) {
  ShardedDatabase legacy(sharded(1));
  ShardedDatabase partitioned(sharded(8));
  const int priorities[] = {0, 5, 0, 2, 5, 0, 2, 9, 0, 5, 2, 9};
  for (int i = 0; i < 12; ++i) {
    PendingRequest request{"job-" + std::to_string(i), priorities[i],
                           static_cast<double>(i)};
    legacy.enqueue_request(request);
    partitioned.enqueue_request(request);
  }
  expect_same_drain(legacy, partitioned);
}

TEST(WorkStealingQueueTest, FrontPushesPreserveLifoWithinPriority) {
  ShardedDatabase legacy(sharded(1));
  ShardedDatabase partitioned(sharded(4));
  for (auto* database : {&legacy, &partitioned}) {
    database->enqueue_request({"back-1", 3, 1.0});
    database->enqueue_request({"back-2", 3, 2.0});
    database->enqueue_request_front({"front-1", 3, 3.0});
    database->enqueue_request_front({"front-2", 3, 4.0});
    database->enqueue_request({"back-3", 3, 5.0});
    database->enqueue_request_front({"low-front", 1, 6.0});
  }
  // Legacy order within priority 3: front-2, front-1, back-1, back-2,
  // back-3; then priority 1.
  expect_same_drain(legacy, partitioned);
}

TEST(WorkStealingQueueTest, CountsLocalAndStolenPops) {
  ShardedDatabase database(sharded(4));
  for (int i = 0; i < 40; ++i) {
    database.enqueue_request(
        {"job-" + std::to_string(i), 0, static_cast<double>(i)});
  }
  std::size_t popped = 0;
  while (take_front(database).has_value()) ++popped;
  EXPECT_EQ(popped, 40u);
  EXPECT_EQ(database.local_pops() + database.stolen_pops(), 40u);
  // FIFO across hashed partitions against a rotating server: most takes
  // cross partitions.  The exact split is deterministic (FNV-1a routing),
  // but all we rely on is that stealing actually happens.
  EXPECT_GT(database.stolen_pops(), 0u);
}

TEST(WorkStealingQueueTest, RemoveOnlyScansOwnerPartition) {
  ShardedDatabase database(sharded(8));
  for (int i = 0; i < 16; ++i) {
    database.enqueue_request(
        {"job-" + std::to_string(i), i % 3, static_cast<double>(i)});
  }
  EXPECT_EQ(database.queue_depth(), 16u);
  EXPECT_TRUE(database.remove_request("job-7"));
  EXPECT_FALSE(database.remove_request("job-7"));
  EXPECT_FALSE(database.remove_request("no-such-job"));
  EXPECT_EQ(database.queue_depth(), 15u);
  std::vector<std::string> drained;
  while (auto request = take_front(database)) {
    drained.push_back(request->job_id);
  }
  EXPECT_EQ(drained.size(), 15u);
  for (const auto& id : drained) EXPECT_NE(id, "job-7");
}

TEST(WorkStealingQueueTest, DepthIsConstantTimeAndConsistent) {
  ShardedDatabase database(sharded(4));
  EXPECT_EQ(database.queue_depth(), 0u);
  for (int i = 0; i < 10; ++i) {
    database.enqueue_request(
        {"job-" + std::to_string(i), i, static_cast<double>(i)});
    EXPECT_EQ(database.queue_depth(), static_cast<std::size_t>(i + 1));
  }
  (void)take_front(database);
  EXPECT_EQ(database.queue_depth(), 9u);
  database.enqueue_request_front({"rush", 99, 0.0});
  EXPECT_EQ(database.queue_depth(), 10u);
  EXPECT_EQ(take_front(database)->job_id, "rush");
  EXPECT_EQ(database.queue_depth(), 9u);
}

TEST(WorkStealingQueueTest, OpAccountingUnchangedByPartitioning) {
  // Partitioning reorganizes storage, not the cost model: the ordered read
  // charges one scatter-gather op per shard, and each take exactly one op
  // to the rotating server shard.
  ShardedDatabase database(sharded(4));
  for (int i = 0; i < 8; ++i) {
    database.enqueue_request(
        {"job-" + std::to_string(i), 0, static_cast<double>(i)});
  }
  const std::uint64_t before = database.sync_op_count();
  const std::vector<PendingRequest> queued = database.pending_requests();
  EXPECT_EQ(database.sync_op_count(), before + 4);
  for (const PendingRequest& request : queued) {
    EXPECT_TRUE(database.take_request(request.job_id));
  }
  EXPECT_EQ(database.sync_op_count(), before + 4 + 8);
}

}  // namespace
}  // namespace gpunion::db
