// Consistency of the coordinator's O(active) bookkeeping: the per-node
// assignment index, the displaced-from index, the terminal-record archive,
// and the operational stats that must keep counting archived records.
#include <gtest/gtest.h>

#include "agent/provider_agent.h"
#include "net/sim_network.h"
#include "sched/coordinator.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

class CoordinatorIndexTest : public ::testing::Test {
 protected:
  CoordinatorIndexTest() : env_(7), net_(env_, {}) {
    registry_.allow_base("nvidia/cuda:12.1-runtime");
    EXPECT_TRUE(registry_
                    .push(container::make_image("pytorch", "2.3-cuda12.1",
                                                "nvidia/cuda:12.1-runtime",
                                                6ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(registry_
                    .push(container::make_image("jupyter-dl", "latest",
                                                "nvidia/cuda:12.1-runtime",
                                                8ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(store_.add_node("nas", 1ULL << 40).is_ok());
    net_.register_endpoint("nas", [this](net::Message&& msg) {
      if (msg.kind != agent::kRestoreRequest) return;
      const auto& request =
          std::any_cast<const agent::RestoreRequest&>(msg.payload);
      net::Message data;
      data.from = "nas";
      data.to = request.requester;
      data.kind = agent::kRestoreData;
      data.traffic_class = net::TrafficClass::kMigration;
      data.size_bytes = std::max<std::uint64_t>(1, request.bytes);
      data.payload = agent::RestoreData{request.job_id};
      ASSERT_TRUE(net_.send(std::move(data)).is_ok());
    });
  }

  void make_coordinator(CoordinatorConfig config = {}) {
    coordinator_ =
        std::make_unique<Coordinator>(env_, net_, database_, store_, config);
    coordinator_->start();
  }

  agent::ProviderAgent& add_agent(const std::string& hostname) {
    nodes_.push_back(
        std::make_unique<hw::NodeModel>(hw::workstation_3090(hostname)));
    agent::AgentConfig config;
    config.owner_group = "vision";
    config.telemetry_interval = 1e9;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
    agents_.back()->join();
    env_.run_until(env_.now() + 1.0);
    return *agents_.back();
  }

  workload::JobSpec training_job(const std::string& id, double hours = 1.0) {
    return workload::make_training_job(id, workload::cnn_small(), hours,
                                       "nlp", env_.now());
  }

  /// Every live assignment (dispatching/running record with a node) must
  /// appear in jobs_on() exactly where record.node says, and vice versa.
  void expect_index_consistent() {
    for (const auto& [job_id, record] : coordinator_->jobs()) {
      if (!record.node.empty()) {
        EXPECT_TRUE(coordinator_->jobs_on(record.node).contains(job_id))
            << job_id << " missing from index of " << record.node;
      }
      if (!record.displaced_from.empty()) {
        EXPECT_TRUE(coordinator_->displaced_from(record.displaced_from)
                        .contains(job_id))
            << job_id << " missing from displaced index of "
            << record.displaced_from;
      }
    }
    for (const auto& provider : agents_) {
      for (const auto& job_id :
           coordinator_->jobs_on(provider->machine_id())) {
        const JobRecord* record = coordinator_->job(job_id);
        ASSERT_NE(record, nullptr);
        EXPECT_EQ(record->node, provider->machine_id());
        // Terminal records leave the index on retirement; the only
        // terminal phase allowed here is a cancel awaiting its ack.
        EXPECT_TRUE(!job_phase_terminal(record->phase) ||
                    record->awaiting_dispatch_settle)
            << job_id << " terminal but still indexed";
      }
    }
  }

  sim::Environment env_;
  net::SimNetwork net_;
  db::SystemDatabase database_;
  storage::CheckpointStore store_;
  container::ImageRegistry registry_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<hw::NodeModel>> nodes_;
  std::vector<std::unique_ptr<agent::ProviderAgent>> agents_;
};

TEST_F(CoordinatorIndexTest, DispatchAckCompleteMaintainIndex) {
  make_coordinator();
  auto& provider = add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.25)).is_ok());
  env_.run_until(env_.now() + 30.0);
  EXPECT_EQ(coordinator_->job("job-1")->phase, JobPhase::kRunning);
  EXPECT_TRUE(coordinator_->jobs_on(provider.machine_id()).contains("job-1"));
  expect_index_consistent();

  env_.run_until(env_.now() + util::hours(0.35));
  // Completed: retired into the archive, gone from the live map and index.
  EXPECT_EQ(coordinator_->job("job-1")->phase, JobPhase::kCompleted);
  EXPECT_FALSE(coordinator_->jobs().contains("job-1"));
  EXPECT_TRUE(coordinator_->archive().contains("job-1"));
  EXPECT_TRUE(coordinator_->jobs_on(provider.machine_id()).empty());
  expect_index_consistent();
}

TEST_F(CoordinatorIndexTest, ArchivedPointerStaysValidAcrossRetirement) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.25)).is_ok());
  env_.run_until(env_.now() + 30.0);
  const JobRecord* record = coordinator_->job("job-1");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  env_.run_until(env_.now() + util::hours(0.35));
  // The pointer taken while live still reads the terminal outcome: the map
  // node was handed over to the archive, not reallocated.
  EXPECT_EQ(record->phase, JobPhase::kCompleted);
  EXPECT_EQ(coordinator_->job("job-1"), record);
}

TEST_F(CoordinatorIndexTest, ResubmitOfArchivedJobIdRejected) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 0.1)).is_ok());
  env_.run_until(env_.now() + util::hours(0.2));
  ASSERT_TRUE(coordinator_->archive().contains("job-1"));
  EXPECT_EQ(coordinator_->submit(training_job("job-1")).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(coordinator_->cancel("job-1").code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(CoordinatorIndexTest, CancelPathsRetireRecords) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("running", 1.0)).is_ok());
  ASSERT_TRUE(coordinator_->submit(training_job("queued", 1.0)).is_ok());
  env_.run_until(env_.now() + 30.0);
  ASSERT_TRUE(coordinator_->cancel("queued").is_ok());   // pending
  ASSERT_TRUE(coordinator_->cancel("running").is_ok());  // running
  env_.run_until(env_.now() + 60.0);
  EXPECT_TRUE(coordinator_->archive().contains("queued"));
  EXPECT_TRUE(coordinator_->archive().contains("running"));
  EXPECT_EQ(coordinator_->job("queued")->phase, JobPhase::kCancelled);
  EXPECT_EQ(coordinator_->job("running")->phase, JobPhase::kCancelled);
  expect_index_consistent();
  // In-flight accounting settled: nothing left that discounts capacity.
  const NodeInfo* node =
      coordinator_->directory().find(agents_[0]->machine_id());
  ASSERT_NE(node, nullptr);
  env_.run_until(env_.now() + 10.0);
  EXPECT_EQ(node->free_gpus, 1);
}

TEST_F(CoordinatorIndexTest, MigrationMovesIndexEntryAndTracksDisplacement) {
  make_coordinator();
  auto& doomed = add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 2.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(15));
  ASSERT_TRUE(coordinator_->jobs_on(doomed.machine_id()).contains("job-1"));

  add_agent("ws-1");
  doomed.depart_emergency();
  env_.run_until(env_.now() + 60.0);

  const JobRecord* record = coordinator_->job("job-1");
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_EQ(record->node, agents_[1]->machine_id());
  // Index entry moved from the lost node to the refuge.
  EXPECT_FALSE(coordinator_->jobs_on(doomed.machine_id()).contains("job-1"));
  EXPECT_TRUE(
      coordinator_->jobs_on(agents_[1]->machine_id()).contains("job-1"));
  // Displacement indexed for the migrate-back path.
  EXPECT_TRUE(
      coordinator_->displaced_from(doomed.machine_id()).contains("job-1"));
  expect_index_consistent();
}

TEST_F(CoordinatorIndexTest, MigrateBackClearsDisplacedIndex) {
  make_coordinator();
  auto& flaky = add_agent("ws-0");
  add_agent("ws-1");
  ASSERT_TRUE(coordinator_->submit(training_job("job-1", 6.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(15));
  const std::string origin = coordinator_->job("job-1")->node;
  auto* origin_agent = origin == flaky.machine_id() ? &flaky : agents_[1].get();

  coordinator_->set_cause_hint(origin_agent->machine_id(),
                               agent::DepartureKind::kTemporary);
  origin_agent->depart_emergency();
  env_.run_until(env_.now() + util::minutes(5));
  EXPECT_TRUE(coordinator_->displaced_from(origin).contains("job-1"));

  origin_agent->rejoin();
  env_.run_until(env_.now() + util::minutes(5));
  const JobRecord* record = coordinator_->job("job-1");
  EXPECT_EQ(record->node, origin);
  EXPECT_EQ(record->migrate_backs, 1);
  // Back home: the displacement entry is gone.
  EXPECT_TRUE(coordinator_->displaced_from(origin).empty());
  expect_index_consistent();
}

TEST_F(CoordinatorIndexTest, SessionDenialAndDisruptionArchive) {
  make_coordinator();
  // No capacity: the session times out in queue.
  workload::JobSpec denied = workload::make_interactive_session(
      "sess-denied", 1.0, "theory", env_.now());
  ASSERT_TRUE(coordinator_->submit(std::move(denied)).is_ok());
  env_.run_until(env_.now() + kSessionPatience + 1.0);
  EXPECT_TRUE(coordinator_->archive().contains("sess-denied"));
  EXPECT_EQ(coordinator_->job("sess-denied")->phase, JobPhase::kDenied);

  // A running session killed by churn disrupts terminally.
  auto& doomed = add_agent("ws-0");
  workload::JobSpec session = workload::make_interactive_session(
      "sess-live", 2.0, "theory", env_.now());
  ASSERT_TRUE(coordinator_->submit(std::move(session)).is_ok());
  env_.run_until(env_.now() + util::minutes(10));
  ASSERT_EQ(coordinator_->job("sess-live")->phase, JobPhase::kRunning);
  doomed.depart_emergency();
  env_.run_until(env_.now() + util::minutes(2));
  EXPECT_EQ(coordinator_->job("sess-live")->phase,
            JobPhase::kSessionDisrupted);
  EXPECT_TRUE(coordinator_->archive().contains("sess-live"));
  expect_index_consistent();
}

TEST_F(CoordinatorIndexTest, OperationalStatsCountArchivedRecords) {
  make_coordinator();
  add_agent("ws-0");
  ASSERT_TRUE(coordinator_->submit(training_job("done-1", 0.1)).is_ok());
  env_.run_until(env_.now() + util::hours(0.2));
  ASSERT_TRUE(coordinator_->submit(training_job("done-2", 0.1)).is_ok());
  env_.run_until(env_.now() + util::hours(0.2));
  ASSERT_TRUE(coordinator_->submit(training_job("live-1", 2.0)).is_ok());
  env_.run_until(env_.now() + 30.0);

  const OperationalStats stats = coordinator_->operational_stats();
  EXPECT_EQ(stats.archived_jobs, 2);
  EXPECT_EQ(stats.live_jobs, 1);
  // Completions are counted from the archive, not lost with retirement.
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.running, 1);
  EXPECT_EQ(stats.completed + stats.running,
            stats.live_jobs + stats.archived_jobs);
}

TEST_F(CoordinatorIndexTest, NodeLossInterruptsOnlyIndexedJobs) {
  make_coordinator();
  auto& doomed = add_agent("ws-0");
  add_agent("ws-1");
  // Archive a pile of history on the doomed node first: terminal records
  // must not be touched (or even visited) by the loss path.
  for (int i = 0; i < 5; ++i) {
    const std::string id = "old-" + std::to_string(i);
    ASSERT_TRUE(coordinator_->submit(training_job(id, 0.05)).is_ok());
    env_.run_until(env_.now() + util::hours(0.1));
    ASSERT_TRUE(coordinator_->archive().contains(id)) << id;
  }
  ASSERT_TRUE(coordinator_->submit(training_job("victim", 2.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(12));
  const std::string host = coordinator_->job("victim")->node;

  coordinator_->set_cause_hint(host, agent::DepartureKind::kEmergency);
  (host == doomed.machine_id() ? doomed : *agents_[1]).depart_emergency();
  env_.run_until(env_.now() + 60.0);

  const JobRecord* record = coordinator_->job("victim");
  EXPECT_EQ(record->interruptions, 1);
  EXPECT_EQ(record->phase, JobPhase::kRunning);  // resettled on the other
  // Archived records untouched by the interruption sweep.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(coordinator_->job("old-" + std::to_string(i))->interruptions, 0);
  }
  expect_index_consistent();
}

TEST_F(CoordinatorIndexTest, HeartbeatDbWritesAreBatched) {
  make_coordinator();  // batching on by default
  add_agent("ws-0");
  add_agent("ws-1");
  const auto& stats = coordinator_->stats();
  env_.run_until(env_.now() + 60.0);
  EXPECT_GT(stats.heartbeats_processed, 0u);
  EXPECT_GT(stats.heartbeat_db_flushes, 0u);
  // Two agents beat every interval but each flush covers the whole window:
  // strictly fewer DB writes than heartbeats processed.
  EXPECT_LT(stats.heartbeat_db_flushes, stats.heartbeats_processed);
  EXPECT_EQ(stats.heartbeat_db_touches_coalesced, stats.heartbeats_processed);
  // The batched flush still lands in the node registry.
  EXPECT_GT(database_.node(agents_[0]->machine_id())->last_heartbeat, 0.0);
}

}  // namespace
}  // namespace gpunion::sched
