// Regression tests for the withdraw-then-resubmit id-reuse hole.
//
// Coordinator::withdraw hands a pending job to the federation layer and
// removes it from the local books entirely — which used to make the id
// free for an immediate resubmit.  A client (or a request-plane retry)
// reusing the id while the forward was still in WAN flight would collide
// with return_job_home / the transfer ack and silently lose one of the two
// jobs.  The fix: the gateway reserve_id()s every withdrawn id for as long
// as its forward is outstanding, and Coordinator::submit refuses reserved
// ids with kFailedPrecondition.  These tests pin the guard at the unit
// level, across a control-plane crash, and end-to-end through a live
// two-region forward.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpunion/federated_platform.h"
#include "gpunion/platform.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

CampusConfig small_campus(const std::string& prefix, int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090(prefix + "-ws-" + std::to_string(i)),
         "group-" + prefix});
  }
  config.storage.push_back({"nas-" + prefix, 512ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

workload::JobSpec training(const std::string& id, const std::string& group,
                           double seconds, util::SimTime at) {
  auto job = workload::make_training_job(id, workload::cnn_small(),
                                         seconds / 3600.0, group, at);
  job.checkpoint_interval = 60.0;
  return job;
}

TEST(IdReuseTest, ReservedIdRefusesResubmitUntilReleased) {
  sim::Environment env(3);
  Platform platform(env, small_campus("solo", 2));
  platform.start();
  env.run_until(5.0);
  sched::Coordinator& coordinator = platform.coordinator();

  ASSERT_TRUE(
      coordinator.submit(training("job-x", "group-solo", 300.0, env.now()))
          .is_ok());
  // Withdraw before dispatch settles the job anywhere: the books forget it.
  auto withdrawn = coordinator.withdraw("job-x");
  ASSERT_TRUE(withdrawn.ok());
  EXPECT_EQ(coordinator.job("job-x"), nullptr);

  // What the gateway does for the duration of the forward:
  coordinator.reserve_id("job-x");
  EXPECT_TRUE(coordinator.id_reserved("job-x"));
  auto refused =
      coordinator.submit(training("job-x", "group-solo", 300.0, env.now()));
  ASSERT_FALSE(refused.is_ok());
  EXPECT_NE(refused.message().find("federation flight"), std::string::npos)
      << refused.message();

  // Released (forward delivered or returned): the id is usable again.
  coordinator.release_id("job-x");
  EXPECT_FALSE(coordinator.id_reserved("job-x"));
  EXPECT_TRUE(
      coordinator.submit(training("job-x", "group-solo", 300.0, env.now()))
          .is_ok());
}

TEST(IdReuseTest, CrashClearsReservations) {
  sim::Environment env(5);
  Platform platform(env, small_campus("crashy", 2));
  platform.register_crash_points(2.0);
  platform.start();
  env.run_until(5.0);
  sched::Coordinator& coordinator = platform.coordinator();

  coordinator.reserve_id("ghost-job");
  ASSERT_TRUE(coordinator.id_reserved("ghost-job"));

  // Reservations are in-memory state: a crash wipes them, and recovery
  // only re-reserves ids with durable forward rows (none here).
  platform.crash_control_plane(2.0);
  env.run_until(env.now() + 30.0);
  EXPECT_FALSE(platform.control_plane_crashed());
  EXPECT_FALSE(coordinator.id_reserved("ghost-job"));
  EXPECT_TRUE(coordinator
                  .submit(training("ghost-job", "group-crashy", 60.0,
                                   env.now()))
                  .is_ok());
}

// End-to-end: while a real two-region forward is in flight the withdrawn
// id must refuse reuse, and once the federation settles every reservation
// must be gone (released by the transfer ack or return_job_home).
TEST(IdReuseTest, ForwardInFlightGuardsIdEndToEnd) {
  sim::Environment env(11);
  FederationConfig config;
  federation::RegionPolicy policy;
  policy.digest_interval = 5.0;
  policy.forward_after = 10.0;
  policy.forward_timeout = 10.0;
  policy.forward_retry_backoff = 30.0;
  config.regions.push_back(RegionConfig{"alpha", small_campus("alpha", 1),
                                        policy});
  config.regions.push_back(RegionConfig{"beta", small_campus("beta", 3),
                                        policy});
  // A slow intercontinental link keeps each forward in WAN flight for a
  // wide, deterministic window the polling loop below cannot miss.
  config.links.push_back({"alpha", "beta", 2.0});
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Overflow a 1-GPU campus so the gateway must forward.
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back("reuse-" + std::to_string(i));
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training(ids.back(), "group-alpha", 120.0,
                                     env.now()))
                    .is_ok());
  }

  // Step until a withdrawn id is reserved (forward in WAN flight).
  sched::Coordinator& alpha = fed.region("alpha").coordinator();
  std::string in_flight;
  while (env.now() < 300.0 && in_flight.empty()) {
    env.run_until(env.now() + 0.25);
    for (const auto& id : ids) {
      if (alpha.id_reserved(id)) {
        in_flight = id;
        break;
      }
    }
  }
  ASSERT_FALSE(in_flight.empty()) << "no forward ever went into flight";
  EXPECT_EQ(alpha.job(in_flight), nullptr) << "withdrawn id still on books";

  // The regression: without the reservation this submit would succeed and
  // collide with the in-flight transfer.
  auto refused =
      alpha.submit(training(in_flight, "group-alpha", 120.0, env.now()));
  ASSERT_FALSE(refused.is_ok());
  EXPECT_NE(refused.message().find("federation flight"), std::string::npos)
      << refused.message();

  // Let the federation settle: all jobs complete somewhere, and every
  // reservation was released by the ack / return path.
  env.run_until(900.0);
  EXPECT_EQ(fed.region("alpha").coordinator().stats().jobs_completed +
                fed.region("beta").coordinator().stats().jobs_completed,
            3);
  for (const auto& id : ids) {
    EXPECT_FALSE(alpha.id_reserved(id)) << id << " reservation leaked";
  }
  EXPECT_EQ(fed.gateway("beta").remote_jobs_active(), 0);
}

}  // namespace
}  // namespace gpunion
