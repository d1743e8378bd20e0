// The sharded store's pending queue: its ordered read must reproduce the
// single-writer SystemDatabase's order exactly, its rows are owned by the
// shards of their jobs, and its takes, served by a rotating shard, count
// the ones another shard served as steals.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/sharded_database.h"
#include "tests/db/take_front.h"

namespace gpunion::db {
namespace {

/// Drains both databases and asserts the take sequences are identical.
void expect_same_drain(Database& a, Database& b) {
  for (;;) {
    std::optional<PendingRequest> req_a = take_front(a);
    std::optional<PendingRequest> req_b = take_front(b);
    ASSERT_EQ(req_a.has_value(), req_b.has_value());
    if (!req_a.has_value()) return;
    EXPECT_EQ(req_a->job_id, req_b->job_id);
    EXPECT_EQ(req_a->priority, req_b->priority);
  }
}

TEST(WorkStealingQueueTest, MatchesSingleWriterOrderMixedPriorities) {
  SystemDatabase single;
  ShardedDatabase sharded;
  const int priorities[] = {0, 5, 0, 2, 5, 0, 2, 9, 0, 5, 2, 9};
  for (int i = 0; i < 12; ++i) {
    PendingRequest request{"job-" + std::to_string(i), priorities[i],
                           static_cast<double>(i)};
    single.enqueue_request(request);
    sharded.enqueue_request(request);
  }
  expect_same_drain(single, sharded);
}

TEST(WorkStealingQueueTest, FrontPushesPreserveLifoWithinPriority) {
  auto fill = [](Database& database) {
    database.enqueue_request({"back-1", 3, 1.0});
    database.enqueue_request({"back-2", 3, 2.0});
    database.enqueue_request_front({"front-1", 3, 3.0});
    database.enqueue_request_front({"front-2", 3, 4.0});
    database.enqueue_request({"back-3", 3, 5.0});
    database.enqueue_request_front({"low-front", 1, 6.0});
  };
  SystemDatabase single;
  ShardedDatabase sharded;
  fill(single);
  fill(sharded);
  // Order within priority 3: front-2, front-1, back-1, back-2, back-3;
  // then priority 1.
  expect_same_drain(single, sharded);
}

TEST(WorkStealingQueueTest, CountsLocalAndStolenPops) {
  ShardedDatabase database;
  for (int i = 0; i < 40; ++i) {
    database.enqueue_request(
        {"job-" + std::to_string(i), 0, static_cast<double>(i)});
  }
  std::size_t popped = 0;
  while (take_front(database).has_value()) ++popped;
  EXPECT_EQ(popped, 40u);
  EXPECT_EQ(database.local_pops() + database.stolen_pops(), 40u);
  // FIFO over hashed owners against a rotating server: most takes are
  // served by a shard that does not own the row.  The exact split is
  // deterministic (FNV-1a routing), but all we rely on is that stealing
  // actually happens.
  EXPECT_GT(database.stolen_pops(), 0u);
}

TEST(WorkStealingQueueTest, RemoveTakesOnlyTheNamedJob) {
  ShardedDatabase database;
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
  ShardedDatabase database;
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

TEST(WorkStealingQueueTest, ReadChargesEveryShardAndATakeOne) {
  // The ordered read charges one scatter-gather op per shard, and each
  // take exactly one op to the rotating server shard.  Enqueues are
  // absorbed by the ledger and charge nothing until its flush.
  ShardedDatabase database;
  for (int i = 0; i < 8; ++i) {
    database.enqueue_request(
        {"job-" + std::to_string(i), 0, static_cast<double>(i)});
  }
  const std::uint64_t before = database.sync_op_count();
  const std::vector<PendingRequest> queued = database.pending_requests();
  EXPECT_EQ(database.sync_op_count(), before + kShardCount);
  for (const PendingRequest& request : queued) {
    EXPECT_TRUE(database.take_request(request.job_id));
  }
  EXPECT_EQ(database.sync_op_count(), before + kShardCount + 8);
}

}  // namespace
}  // namespace gpunion::db
