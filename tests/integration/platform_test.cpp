// End-to-end platform tests on the paper's 11-server campus.
#include "gpunion/platform.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "gpunion/client.h"
#include "monitor/exposition.h"

namespace gpunion {
namespace {

TEST(PlatformTest, StartBringsFleetOnline) {
  sim::Environment env(1);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(10.0);
  int active = 0;
  for (const auto* node : platform.coordinator().directory().all()) {
    if (node->status == db::NodeStatus::kActive) ++active;
  }
  EXPECT_EQ(active, 11);
  EXPECT_EQ(platform.total_gpus(), 8 + 8 + 2 + 4);
  EXPECT_EQ(platform.coordinator().directory().total_gpus(), 22);
}

TEST(PlatformTest, ClientSubmitRunsJob) {
  sim::Environment env(2);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "theory");
  auto job_id = client.submit_training(workload::cnn_small(), 0.5);
  ASSERT_TRUE(job_id.ok()) << job_id.status();
  env.run_until(env.now() + 60.0);
  const sched::JobRecord* record = client.status(*job_id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, sched::JobPhase::kRunning);
  env.run_until(env.now() + util::hours(1));
  EXPECT_EQ(record->phase, sched::JobPhase::kCompleted);
}

TEST(PlatformTest, SessionServedOnIdleFleet) {
  sim::Environment env(3);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "theory");
  auto session = client.request_session(1.0);
  ASSERT_TRUE(session.ok());
  env.run_until(env.now() + util::hours(1.2));
  EXPECT_EQ(client.status(*session)->phase, sched::JobPhase::kCompleted);
  EXPECT_EQ(platform.coordinator().stats().sessions_served, 1);
}

TEST(PlatformTest, UtilizationFromLedger) {
  sim::Environment env(4);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "vision");
  // One job occupying 1 of 22 GPUs for ~an hour of a 2-hour window.
  auto job_id = client.submit_training(workload::cnn_small(), 1.0);
  ASSERT_TRUE(job_id.ok());
  env.run_until(util::hours(2));
  const double utilization = platform.fleet_utilization(0, util::hours(2));
  EXPECT_GT(utilization, 0.015);
  EXPECT_LT(utilization, 0.035);
  const auto per_node = platform.per_node_utilization(0, util::hours(2));
  EXPECT_EQ(per_node.size(), 11u);
  double max_node = 0;
  for (const auto& [host, value] : per_node) max_node = std::max(max_node, value);
  EXPECT_GT(max_node, 0.3);  // the node that ran it was ~50% busy
}

TEST(PlatformTest, InterruptionInjectionAndRejoin) {
  sim::Environment env(5);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  const std::string machine = Platform::machine_id_for("ws-vision-0");
  workload::Interruption event;
  event.machine_id = machine;
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(20);
  event.at = env.now();
  platform.inject_interruption(event);
  env.run_until(env.now() + util::minutes(2));
  EXPECT_EQ(platform.coordinator().directory().find(machine)->status,
            db::NodeStatus::kUnavailable);
  env.run_until(env.now() + util::minutes(25));
  EXPECT_EQ(platform.coordinator().directory().find(machine)->status,
            db::NodeStatus::kActive);
}

TEST(PlatformTest, OwnerReclaimEvictsGuestForOwnerJob) {
  sim::Environment env(6);
  CampusConfig config = paper_campus();
  // Shrink to one workstation so the owner/guest conflict is forced.
  config.nodes.resize(1);  // ws-vision-0 only
  Platform platform(env, config);
  platform.start();
  env.run_until(5.0);

  // A guest (nlp) fills the only GPU.
  Client guest(platform, "nlp");
  auto guest_job = guest.submit_training(workload::cnn_small(), 4.0);
  ASSERT_TRUE(guest_job.ok());
  env.run_until(env.now() + util::minutes(12));  // past one checkpoint
  ASSERT_EQ(guest.status(*guest_job)->phase, sched::JobPhase::kRunning);

  // The owner (vision) submits with a home-node hint: reclaim fires.
  Client owner(platform, "vision");
  SubmitOptions options;
  options.home_hostname = "ws-vision-0";
  auto owner_job = owner.submit_training(workload::cnn_small(), 0.5, options);
  ASSERT_TRUE(owner_job.ok());
  env.run_until(env.now() + util::minutes(3));
  EXPECT_EQ(owner.status(*owner_job)->phase, sched::JobPhase::kRunning);
  // Guest went back to pending (single node campus: nowhere else to go).
  EXPECT_EQ(guest.status(*guest_job)->phase, sched::JobPhase::kPending);
  EXPECT_GE(guest.status(*guest_job)->interruptions, 1);
}

TEST(PlatformTest, MetricsExposedInPrometheusFormat) {
  sim::Environment env(7);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(util::minutes(3));  // two scrapes
  const std::string text = monitor::expose_registry(platform.metrics());
  EXPECT_NE(text.find("# TYPE gpunion_nodes_active gauge"),
            std::string::npos);
  EXPECT_NE(text.find("gpunion_nodes_active 11"), std::string::npos);
  EXPECT_NE(text.find("gpunion_gpu_busy_fraction{node=\"srv-mlsys-0\"}"),
            std::string::npos);
  // Scraper persisted history into the system database.
  EXPECT_FALSE(platform.database().series("gpunion_nodes_active").empty());
}

TEST(PlatformTest, CheckpointTrafficFlowsToNas) {
  sim::Environment env(8);
  Platform platform(env, paper_campus());
  platform.start();
  env.run_until(5.0);
  Client client(platform, "bio");
  SubmitOptions options;
  options.checkpoint_interval = util::minutes(5);
  options.preferred_storage = {"nas-campus"};
  auto job_id =
      client.submit_training(workload::transformer_small(), 2.0, options);
  ASSERT_TRUE(job_id.ok());
  env.run_until(env.now() + util::hours(1));
  EXPECT_GT(platform.network().bytes_sent(net::TrafficClass::kCheckpoint),
            1ULL << 30);
  const auto& chain = platform.checkpoint_store().chain(*job_id);
  EXPECT_GE(chain.size(), 5u);
  EXPECT_EQ(chain.front().storage_node, "nas-campus");
}

TEST(PlatformTest, MachineIdsAreStable) {
  EXPECT_EQ(Platform::machine_id_for("ws-vision-0"),
            Platform::machine_id_for("ws-vision-0"));
  sim::Environment env(9);
  Platform platform(env, paper_campus());
  EXPECT_NE(platform.agent_by_hostname("ws-vision-0"), nullptr);
  EXPECT_EQ(platform.agent(Platform::machine_id_for("ws-vision-0")),
            platform.agent_by_hostname("ws-vision-0"));
  EXPECT_EQ(platform.machine_ids().size(), 11u);
}

TEST(PlatformTest, RejectsDuplicateHostnamesAndStorageIds) {
  // Checked in every build type: a hostname keys the agent and its machine
  // id, a storage id keys its NAS, so a duplicate would hide the first.
  auto construct = [](const CampusConfig& config) {
    sim::Environment env(10);
    Platform platform(env, config);
  };
  CampusConfig twice_host = paper_campus();
  ASSERT_EQ(twice_host.nodes[0].spec.hostname, "ws-vision-0");
  twice_host.nodes.push_back(twice_host.nodes[0]);
  EXPECT_THROW(construct(twice_host), std::invalid_argument);

  CampusConfig twice_nas = paper_campus();
  ASSERT_EQ(twice_nas.storage[0].id, "nas-campus");
  twice_nas.storage.push_back(twice_nas.storage[0]);
  EXPECT_THROW(construct(twice_nas), std::invalid_argument);

  EXPECT_NO_THROW(construct(paper_campus()));
}

}  // namespace
}  // namespace gpunion
