// Mesh federation tests: replicated directory gossip and convergence,
// placement queries answered from the local replica, WAN-cost-aware
// ranking, the interactive RTT budget, chained re-forwarding with acyclic
// provenance chains, and WAN partitions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpunion/federated_platform.h"
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
  config.agent_defaults.telemetry_interval = 1e9;  // off the control plane
  config.scrape_interval = 1e9;
  return config;
}

federation::RegionPolicy fast_policy() {
  federation::RegionPolicy policy;
  policy.digest_interval = 5.0;
  policy.forward_after = 10.0;
  policy.forward_timeout = 10.0;
  policy.forward_retry_backoff = 30.0;
  return policy;
}

RegionConfig make_region(const std::string& name, int nodes,
                         federation::RegionPolicy policy = fast_policy()) {
  return RegionConfig{name, small_campus(name, nodes), policy};
}

workload::JobSpec training(const std::string& id, const std::string& group,
                           double seconds, util::SimTime at) {
  auto job = workload::make_training_job(id, workload::cnn_small(),
                                         seconds / 3600.0, group, at);
  job.checkpoint_interval = 30.0;
  return job;
}

int completed_in(Platform& platform) {
  return platform.coordinator().stats().jobs_completed;
}

TEST(FederationMeshTest, GossipConvergesReplicasWithoutABroker) {
  sim::Environment env(7);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 2));
  config.regions.push_back(make_region("beta", 3));
  config.regions.push_back(make_region("gamma", 1));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(31.0);

  // Every replica converged on every region's capacity, and the version
  // vectors agree (gossip quiesced between digest ticks).  Each
  // workstation carries one GPU.
  const std::map<std::string, int> workstations = {
      {"alpha", 2}, {"beta", 3}, {"gamma", 1}};
  std::map<std::string, std::uint64_t> reference_vector;
  for (const auto& name : fed.region_names()) {
    const federation::RegionDirectory& directory =
        fed.gateway(name).directory();
    ASSERT_EQ(directory.entries().size(), 3u) << name;
    for (const auto& [region, count] : workstations) {
      const federation::DirectoryEntry* entry = directory.entry(region);
      ASSERT_NE(entry, nullptr) << name << " missing " << region;
      EXPECT_EQ(entry->capacity.nodes, count) << region;
      EXPECT_EQ(entry->capacity.total_gpus, count) << region;
      EXPECT_EQ(entry->gateway_id, "gw-" + region);
      // Freshness: no entry is older than two gossip rounds.
      EXPECT_LE(env.now() - entry->generated_at,
                2 * fast_policy().digest_interval + 0.5)
          << name << " holds a stale view of " << region;
    }
    if (reference_vector.empty()) {
      reference_vector = directory.version_vector();
    } else {
      EXPECT_EQ(directory.version_vector(), reference_vector) << name;
    }
  }
  const FederatedStats stats = fed.stats();
  EXPECT_GT(stats.gossips_sent, 0u);
  EXPECT_GT(stats.gossips_received, 0u);
}

TEST(FederationMeshTest, ReplayedGossipEntriesAreIgnored) {
  // Version dominance: a replica never regresses to an older entry no
  // matter how gossip is reordered.
  federation::RegionDirectory directory("here");
  federation::DirectoryEntry entry;
  entry.region = "there";
  entry.gateway_id = "gw-there";
  entry.capacity.free_gpus = 4;
  entry.version = 7;
  entry.generated_at = 100.0;
  ASSERT_TRUE(directory.merge(entry, 101.0));

  federation::DirectoryEntry stale = entry;
  stale.version = 6;
  stale.generated_at = 90.0;
  stale.capacity.free_gpus = 9;
  EXPECT_FALSE(directory.merge(stale, 102.0));
  EXPECT_EQ(directory.entry("there")->capacity.free_gpus, 4);
  EXPECT_EQ(directory.stats().merges_ignored, 1u);

  // A restarted origin resets its version counter but stamps fresh times:
  // generated_at dominance lets it back in immediately.
  federation::DirectoryEntry restarted = entry;
  restarted.version = 1;
  restarted.generated_at = 150.0;
  restarted.capacity.free_gpus = 2;
  EXPECT_TRUE(directory.merge(restarted, 151.0));
  EXPECT_EQ(directory.entry("there")->capacity.free_gpus, 2);

  // Own entry can never be overwritten by a relay.
  directory.update_self("gw-here", {}, 3, 160.0);
  federation::DirectoryEntry self_relay;
  self_relay.region = "here";
  self_relay.version = 99;
  self_relay.generated_at = 170.0;
  EXPECT_FALSE(directory.merge(self_relay, 171.0));
  EXPECT_EQ(directory.entry("here")->version, 3u);
}

TEST(FederationMeshTest, OverflowRanksLocallyAndForwardsTwoHopChains) {
  sim::Environment env(11);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("job-" + std::to_string(i),
                                     "group-alpha", 120.0, env.now()))
                    .is_ok());
  }
  env.run_until(600.0);

  const auto& alpha = fed.gateway("alpha").stats();
  // Placement queries were answered from the local replica.
  EXPECT_GE(alpha.local_rankings, 2u);
  EXPECT_GE(alpha.forwards_admitted, 2u);
  EXPECT_EQ(completed_in(fed.region("alpha")) +
                completed_in(fed.region("beta")),
            3);
  EXPECT_EQ(alpha.remote_completions, alpha.forwards_admitted);
  // Direct forwards carry a two-hop chain.
  for (const auto& [job_id, chain] : fed.gateway("beta").hosted_chains()) {
    EXPECT_EQ(chain, (std::vector<std::string>{"alpha", "beta"})) << job_id;
    const db::JobProvenance* row =
        fed.region("beta").database().provenance(job_id);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->route, "alpha>beta");
  }
}

TEST(FederationMeshTest, WanCostRankingPrefersNearFreshRegions) {
  sim::Environment env(13);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("near", 2));
  config.regions.push_back(make_region("far", 2));
  // Same capacity either way; only the WAN distance differs.
  config.links.push_back({"alpha", "near", 0.002});
  config.links.push_back({"alpha", "far", 0.080});
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("busy", "group-alpha", 600.0, env.now()))
                  .is_ok());
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("overflow", "group-alpha", 60.0,
                                   env.now()))
                  .is_ok());
  env.run_until(300.0);

  // The cheaper path won: the overflow ran nearby, nothing went far.
  EXPECT_GE(fed.gateway("near").stats().remote_admitted, 1u);
  EXPECT_EQ(fed.gateway("far").stats().remote_admitted, 0u);
  EXPECT_GE(completed_in(fed.region("near")), 1);
}

TEST(FederationMeshTest, BusyDigestRanksBehindFreeRegion) {
  sim::Environment env(17);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("busy", 2));
  config.regions.push_back(make_region("idle", 2));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Fill "busy" so its digest shows zero free GPUs before alpha overflows.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fed.region("busy")
                    .coordinator()
                    .submit(training("busy-local-" + std::to_string(i),
                                     "group-busy", 600.0, env.now()))
                    .is_ok());
  }
  env.run_until(20.0);  // digests with the busy view have gossiped
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("holder", "group-alpha", 600.0, env.now()))
                  .is_ok());
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("overflow", "group-alpha", 60.0,
                                   env.now()))
                  .is_ok());
  env.run_until(300.0);

  // The busy-wait penalty routed the job to the digest-free region on the
  // first attempt — no detour through the full campus.
  EXPECT_GE(fed.gateway("idle").stats().remote_admitted, 1u);
  EXPECT_EQ(fed.gateway("busy").stats().remote_admitted, 0u);
  EXPECT_GE(completed_in(fed.region("idle")), 1);
}

TEST(FederationMeshTest, ChainedReforwardPreservesProvenanceAcrossOutages) {
  // The ReclaimNet-style pressure test: region BRAVO dies while hosting
  // ALPHA's displaced job; the job completes in CHARLIE with the full
  // alpha -> bravo -> charlie chain intact, and never loops back through
  // a region already in its chain.
  sim::Environment env(23);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("bravo", 2));
  config.regions.push_back(make_region("charlie", 2));
  // bravo is nearby (wins the first forward), charlie farther.
  config.links.push_back({"alpha", "bravo", 0.002});
  config.links.push_back({"alpha", "charlie", 0.030});
  config.links.push_back({"bravo", "charlie", 0.030});
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Alpha's only GPU is pinned; the long checkpointing job must leave.
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("pin", "group-alpha", 2000.0, env.now()))
                  .is_ok());
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("wanderer", "group-alpha", 600.0,
                                   env.now()))
                  .is_ok());
  env.run_until(200.0);  // forwarded to bravo, running, checkpointing

  ASSERT_NE(fed.region("bravo").coordinator().job("wanderer"), nullptr)
      << "test setup: the job should be hosted in bravo by now";

  // Bravo goes dark past the horizon: its displaced guest must chain on.
  fed.inject_region_outage("bravo", 5000.0);
  env.run_until(1200.0);

  // The job finished in charlie...
  const sched::JobRecord* record =
      fed.region("charlie").coordinator().job("wanderer");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, sched::JobPhase::kCompleted);
  // ...with the full hop chain, acyclic and rooted at the true origin.
  const std::vector<std::string>* chain =
      fed.gateway("charlie").provenance_chain("wanderer");
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(*chain,
            (std::vector<std::string>{"alpha", "bravo", "charlie"}));
  const db::JobProvenance* row =
      fed.region("charlie").database().provenance("wanderer");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->origin_region, "alpha");
  EXPECT_EQ(row->executing_region, "charlie");
  EXPECT_EQ(row->route, "alpha>bravo>charlie");
  // Bravo refused to offer the job back to a region already in its chain
  // (alpha was fresh, feasible and otherwise rankable).
  EXPECT_GE(fed.gateway("bravo").stats().chain_loops_avoided, 1u);
  // The shipped progress seeded charlie's restore.
  EXPECT_GE(fed.gateway("charlie").stats().cross_campus_migrations_in, 1u);
  // The TRUE origin (alpha, not bravo) heard the completion.
  EXPECT_GE(fed.gateway("alpha").stats().remote_completions, 1u);
}

TEST(FederationMeshTest, InteractiveForwardHonorsRttBudget) {
  sim::Environment env(29);
  FederationConfig config;
  federation::RegionPolicy interactive = fast_policy();
  interactive.forward_interactive = true;
  interactive.max_interactive_rtt = 0.050;
  config.regions.push_back(make_region("home", 1, interactive));
  config.regions.push_back(make_region("near", 2, interactive));
  config.regions.push_back(make_region("far", 2, interactive));
  config.links.push_back({"home", "near", 0.004});   // 8 ms RTT: fits
  config.links.push_back({"home", "far", 0.060});    // 120 ms RTT: over
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Pin home's GPU with a whole-device training job FIRST (a later-queued
  // session would otherwise win the GPU as a shared slot), then ask for a
  // notebook.
  ASSERT_TRUE(fed.region("home")
                  .coordinator()
                  .submit(training("pin", "group-home", 900.0, env.now()))
                  .is_ok());
  env.run_until(8.0);  // pin holds the GPU (dispatch reserves immediately)
  ASSERT_TRUE(fed.region("home")
                  .coordinator()
                  .submit(workload::make_interactive_session(
                      "nb", 0.05, "group-home", env.now()))
                  .is_ok());
  env.run_until(400.0);

  // The session went to the region inside the budget, never the far one.
  EXPECT_GE(fed.gateway("near").stats().remote_admitted, 1u);
  EXPECT_EQ(fed.gateway("far").stats().remote_admitted, 0u);
  EXPECT_GE(fed.gateway("home").stats().interactive_rtt_filtered, 1u);
  EXPECT_EQ(fed.region("near").coordinator().stats().sessions_served, 1);
}

TEST(FederationMeshTest, InteractiveStaysPendingWhenNoRegionFitsBudget) {
  sim::Environment env(31);
  FederationConfig config;
  federation::RegionPolicy interactive = fast_policy();
  interactive.forward_interactive = true;
  interactive.max_interactive_rtt = 0.050;
  config.regions.push_back(make_region("home", 1, interactive));
  config.regions.push_back(make_region("far", 2, interactive));
  config.links.push_back({"home", "far", 0.060});  // 120 ms RTT: over budget
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  ASSERT_TRUE(fed.region("home")
                  .coordinator()
                  .submit(training("pin", "group-home", 100.0, env.now()))
                  .is_ok());
  env.run_until(8.0);  // pin holds the GPU before the session queues
  ASSERT_TRUE(fed.region("home")
                  .coordinator()
                  .submit(workload::make_interactive_session(
                      "nb", 0.05, "group-home", env.now()))
                  .is_ok());
  env.run_until(800.0);

  // The only candidate is beyond the budget: the session was REFUSED the
  // WAN (no offer ever sent) and served at home once the GPU freed up.
  EXPECT_EQ(fed.gateway("home").stats().forwards_attempted, 0u);
  EXPECT_GE(fed.gateway("home").stats().interactive_rtt_filtered, 1u);
  EXPECT_EQ(fed.gateway("far").stats().remote_admitted, 0u);
  EXPECT_EQ(fed.region("home").coordinator().stats().sessions_served, 1);
}

TEST(FederationMeshTest, PartitionedRegionAgesOutOfRankingsThenReturns) {
  sim::Environment env(41);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 2));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Cut beta off the WAN and let its replica entry age past the TTL.
  fed.set_region_wan_partitioned("beta", true);
  env.run_until(5.0 + federation::kDirectoryHardTtl + 35.0);

  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("pin", "group-alpha", 600.0, env.now()))
                  .is_ok());
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("overflow", "group-alpha", 60.0,
                                   env.now()))
                  .is_ok());
  env.run_until(env.now() + 60.0);
  // Beta is presumed unreachable: no offers were wasted on it.
  EXPECT_EQ(fed.gateway("alpha").stats().forwards_attempted, 0u);
  EXPECT_GE(fed.gateway("alpha").stats().forwards_aborted, 1u);

  // Heal: gossip resumes, beta re-enters rankings, the job completes there.
  fed.set_region_wan_partitioned("beta", false);
  env.run_until(env.now() + 300.0);
  EXPECT_GE(fed.gateway("beta").stats().remote_admitted, 1u);
  EXPECT_GE(completed_in(fed.region("beta")), 1);
}

}  // namespace
}  // namespace gpunion
