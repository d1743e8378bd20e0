// The scheduling pass's queue contract, on a real campus (coordinator,
// agents, network, sharded write-behind database):
//
//  * a pass reads the pending queue in order and takes a request off it
//    only when it dispatches the job or finds it no longer pending, so a
//    pass that places nothing writes nothing — no WAL record, no ledger
//    entry — and leaves the queue order as it was;
//  * a backlog that mixes two priorities and a job requeued at the head of
//    its class (a migrate-back eviction) dispatches in the same order
//    however many blocked passes run over it, and across a control-plane
//    crash and recovery.
#include "sched/coordinator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpunion/platform.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

CampusConfig three_node_campus() {
  CampusConfig config;
  for (const char* host : {"pa", "pb", "pc"}) {
    config.nodes.push_back({hw::workstation_3090(host), "group-0"});
  }
  config.storage.push_back({"nas-pass", 64ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

workload::JobSpec job(const std::string& id, double hours, int priority,
                      util::SimTime now) {
  auto spec = workload::make_training_job(id, workload::cnn_small(), hours,
                                          "group-0", now);
  spec.requirements.priority = priority;
  spec.checkpoint_interval = 60.0;
  return spec;
}

std::vector<std::string> queue_order(const db::Database& database) {
  std::vector<std::string> out;
  for (const db::PendingRequest& request : database.pending_requests()) {
    out.push_back(request.job_id);
  }
  return out;
}

/// Job ids in allocation-open order: the order the agents confirmed the
/// dispatches in.
std::vector<std::string> dispatch_order(const db::Database& database) {
  std::vector<std::string> out;
  for (const db::AllocationRecord& row : database.allocation_ledger()) {
    out.push_back(row.job_id);
  }
  return out;
}

enum class Outage { kNone, kCrash };

/// Drives one backlog through a campus of three one-GPU nodes and returns
/// the dispatch order.  `hog` holds one node for the whole run.  `mover`
/// starts on another, whose provider leaves for two minutes, so the mover
/// is displaced onto the third node; while the provider is away, a backlog
/// of two priorities queues behind the full campus.  When it returns, its
/// node takes the first high-priority job, and the migrate-back eviction of
/// the mover frees the third node for the second one, so the mover waits
/// at the head of priority 0, ahead of the low jobs submitted before it.
/// `extra_passes` forced passes run over each blocked stretch; `outage`
/// crashes and recovers the control plane at the start of the second.
std::vector<std::string> run_backlog(int extra_passes, Outage outage) {
  sim::Environment env(11);
  Platform platform(env, three_node_campus());
  platform.start();
  env.run_until(5.0);
  auto& coordinator = platform.coordinator();

  // Runs `span` seconds, forcing `extra_passes` passes along the way.
  auto run_with_passes = [&](util::Duration span) {
    const util::SimTime end = env.now() + span;
    for (int i = 0; i < extra_passes; ++i) {
      env.run_until(env.now() + span / (extra_passes + 1));
      coordinator.schedule_pass();
    }
    env.run_until(end);
  };

  EXPECT_TRUE(coordinator.submit(job("mover", 0.5, 0, env.now())).is_ok());
  EXPECT_TRUE(coordinator.submit(job("hog", 3.0, 0, env.now())).is_ok());
  env.run_until(env.now() + 10.0);
  const std::string home = coordinator.job("mover")->node;

  workload::Interruption away;
  away.at = env.now();
  away.machine_id = home;
  away.kind = agent::DepartureKind::kTemporary;
  away.downtime = 120.0;
  platform.inject_interruption(away);
  env.run_until(env.now() + 30.0);  // detected, displaced, re-placed
  EXPECT_EQ(coordinator.job("mover")->phase, sched::JobPhase::kRunning);
  EXPECT_NE(coordinator.job("mover")->node, home);

  for (const char* id : {"low-1", "high-1", "low-2", "high-2", "low-3"}) {
    const int priority = std::string(id).starts_with("high") ? 5 : 0;
    EXPECT_TRUE(
        coordinator.submit(job(id, 0.02, priority, env.now())).is_ok());
  }
  run_with_passes(60.0);  // the campus is full: every pass is blocked

  env.run_until(env.now() + 60.0);  // the node is back; migrate-back runs
  EXPECT_EQ(queue_order(platform.database()),
            (std::vector<std::string>{"mover", "low-1", "low-2", "low-3"}));
  if (outage == Outage::kCrash) {
    platform.crash_control_plane(/*downtime=*/2.0);
  }
  run_with_passes(util::hours(0.5));
  EXPECT_TRUE(platform.database().pending_requests().empty());
  return dispatch_order(platform.database());
}

TEST(SchedulePassTest, BlockedPassWritesNothingAndKeepsTheOrder) {
  sim::Environment env(5);
  Platform platform(env, three_node_campus());
  platform.start();
  env.run_until(5.0);
  auto& coordinator = platform.coordinator();
  for (const char* id : {"run-1", "run-2", "run-3"}) {
    ASSERT_TRUE(coordinator.submit(job(id, 1.0, 0, env.now())).is_ok());
  }
  env.run_until(env.now() + 10.0);  // the campus is full
  for (const char* id : {"low-1", "high-1", "low-2", "high-2"}) {
    const int priority = std::string(id).starts_with("high") ? 5 : 0;
    ASSERT_TRUE(
        coordinator.submit(job(id, 0.1, priority, env.now())).is_ok());
  }
  env.run_until(env.now() + 30.0);
  const auto& database = platform.database();
  const std::vector<std::string> order = queue_order(database);
  ASSERT_EQ(order, (std::vector<std::string>{"high-1", "high-2", "low-1",
                                             "low-2"}));

  const std::uint64_t appended = database.wal().stats().appended;
  const std::uint64_t absorbed = database.ledger().stats().absorbed;
  for (int pass = 0; pass < 10; ++pass) coordinator.schedule_pass();
  EXPECT_EQ(database.wal().stats().appended, appended);
  EXPECT_EQ(database.ledger().stats().absorbed, absorbed);
  EXPECT_EQ(queue_order(database), order);
  EXPECT_EQ(database.local_pops() + database.stolen_pops(), 3u)
      << "only the three dispatched requests were taken";
}

TEST(SchedulePassTest, BacklogDispatchesInOneOrderHoweverManyPassesRun) {
  const std::vector<std::string> quiet = run_backlog(0, Outage::kNone);
  if (::testing::Test::HasFailure()) return;
  // After the mover's first placement, the hog's, and the mover's
  // displacement onto the third node: the returning node takes high-1, the
  // evicted mover's node takes high-2, then the mover leads the low jobs.
  ASSERT_EQ(quiet.size(), 9u);
  EXPECT_EQ(std::vector<std::string>(quiet.end() - 6, quiet.end()),
            (std::vector<std::string>{"high-1", "high-2", "mover", "low-1",
                                      "low-2", "low-3"}));
  EXPECT_EQ(run_backlog(40, Outage::kNone), quiet);
}

TEST(SchedulePassTest, BacklogDispatchesInOneOrderAcrossACrash) {
  const std::vector<std::string> quiet = run_backlog(0, Outage::kNone);
  EXPECT_EQ(run_backlog(0, Outage::kCrash), quiet);
  EXPECT_EQ(run_backlog(40, Outage::kCrash), quiet);
}

}  // namespace
}  // namespace gpunion
