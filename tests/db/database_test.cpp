#include "db/database.h"

#include <gtest/gtest.h>

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

TEST(DatabaseTest, NodeUpsertAndLookup) {
  SystemDatabase database;
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  auto found = database.node("m-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->hostname, "host-m-1");
  EXPECT_EQ(database.node("ghost").status().code(),
            util::StatusCode::kNotFound);
}

TEST(DatabaseTest, EmptyMachineIdRejected) {
  SystemDatabase database;
  EXPECT_EQ(database.upsert_node(NodeRecord{}).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, StatusTransitions) {
  SystemDatabase database;
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  ASSERT_TRUE(
      database.set_node_status("m-1", NodeStatus::kUnavailable).is_ok());
  EXPECT_EQ(database.node("m-1")->status, NodeStatus::kUnavailable);
}

TEST(DatabaseTest, HeartbeatTouch) {
  SystemDatabase database;
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  ASSERT_EQ(database.touch_heartbeats({{"m-1", 42.0}}), 1u);
  EXPECT_DOUBLE_EQ(database.node("m-1")->last_heartbeat, 42.0);
  // An unknown machine updates no row.
  EXPECT_EQ(database.touch_heartbeats({{"ghost", 1.0}}), 0u);
}

TEST(DatabaseTest, BatchedHeartbeatTouchIsOneOperation) {
  SystemDatabase database;
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-2")).is_ok());
  ASSERT_TRUE(database.upsert_node(node("m-3")).is_ok());
  const std::uint64_t before = database.op_count();
  // Three touches, one batched write, unknown machine skipped.
  EXPECT_EQ(database.touch_heartbeats(
                {{"m-1", 10.0}, {"m-2", 11.0}, {"m-3", 12.0}, {"ghost", 9.0}}),
            3u);
  EXPECT_EQ(database.op_count(), before + 1);
  EXPECT_DOUBLE_EQ(database.node("m-1")->last_heartbeat, 10.0);
  EXPECT_DOUBLE_EQ(database.node("m-3")->last_heartbeat, 12.0);
  // A stale batched value never rolls a fresher row backwards.
  EXPECT_EQ(database.touch_heartbeats({{"m-1", 5.0}}), 1u);
  EXPECT_DOUBLE_EQ(database.node("m-1")->last_heartbeat, 10.0);
}

TEST(DatabaseTest, AllocationLedgerLifecycle) {
  SystemDatabase database;
  const auto id = database.open_allocation("job-1", "m-1", {0, 1}, 10.0);
  EXPECT_GT(id, 0u);
  ASSERT_TRUE(
      database.close_allocation(id, AllocationOutcome::kCompleted, 20.0)
          .is_ok());
  const auto rows = database.allocations_for_job("job-1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].machine_id, "m-1");
  EXPECT_EQ(rows[0].gpu_indices.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].ended_at, 20.0);
  EXPECT_EQ(rows[0].outcome, AllocationOutcome::kCompleted);
}

TEST(DatabaseTest, DoubleCloseRejected) {
  SystemDatabase database;
  const auto id = database.open_allocation("job-1", "m-1", {0}, 10.0);
  ASSERT_TRUE(database.close_allocation(id, AllocationOutcome::kKilled, 20.0)
                  .is_ok());
  EXPECT_EQ(
      database.close_allocation(id, AllocationOutcome::kCompleted, 30.0)
          .code(),
      util::StatusCode::kFailedPrecondition);
}

TEST(DatabaseTest, QueuePriorityThenFifo) {
  SystemDatabase database;
  database.enqueue_request({"low-1", 0, 1.0});
  database.enqueue_request({"high-1", 5, 2.0});
  database.enqueue_request({"low-2", 0, 3.0});
  database.enqueue_request({"high-2", 5, 4.0});
  EXPECT_EQ(take_front(database)->job_id, "high-1");
  EXPECT_EQ(take_front(database)->job_id, "high-2");
  EXPECT_EQ(take_front(database)->job_id, "low-1");
  EXPECT_EQ(take_front(database)->job_id, "low-2");
  EXPECT_FALSE(take_front(database).has_value());
}

TEST(DatabaseTest, QueueFrontInsertion) {
  SystemDatabase database;
  database.enqueue_request({"a", 0, 1.0});
  database.enqueue_request_front({"displaced", 0, 0.5});
  EXPECT_EQ(take_front(database)->job_id, "displaced");
  EXPECT_EQ(take_front(database)->job_id, "a");
}

TEST(DatabaseTest, RemoveRequest) {
  SystemDatabase database;
  database.enqueue_request({"a", 0, 1.0});
  database.enqueue_request({"b", 0, 2.0});
  EXPECT_TRUE(database.remove_request("a"));
  EXPECT_FALSE(database.remove_request("a"));
  EXPECT_EQ(database.queue_depth(), 1u);
  EXPECT_EQ(take_front(database)->job_id, "b");
}

TEST(DatabaseTest, MetricsRingBuffer) {
  SystemDatabase database;
  const int points = static_cast<int>(kHistoryLimit) + 2;
  for (int i = 0; i < points; ++i) {
    database.record_metric("util", i, i * 10.0);
  }
  const auto& series = database.series("util");
  ASSERT_EQ(series.size(), kHistoryLimit);
  EXPECT_DOUBLE_EQ(series.front().value, 20.0);  // oldest kept is i=2
  EXPECT_DOUBLE_EQ(series.back().value, (points - 1) * 10.0);
}

TEST(DatabaseTest, SeriesNamesSorted) {
  SystemDatabase database;
  database.record_metric("zeta", 0, 1);
  database.record_metric("alpha", 0, 1);
  EXPECT_EQ(database.series_names(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(DatabaseTest, OpCounting) {
  SystemDatabase database;
  const auto before = database.op_count();
  ASSERT_TRUE(database.upsert_node(node("m-1")).is_ok());
  (void)database.nodes();
  EXPECT_EQ(database.op_count(), before + 2);
}

}  // namespace
}  // namespace gpunion::db
