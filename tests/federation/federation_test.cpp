// Federation-layer tests: cross-campus forwarding with regional autonomy
// (admission caps, refusals), stale-digest re-routing, checkpoint migration
// across a full-campus outage, forwarding over a lossy WAN, the transfer
// resend backoff across a partition, forwarding through unflushed
// write-behind ledgers, time-slice seats in ranking and admission,
// and configuration validation.  Replicated directories, WAN-cost ranking
// and chained re-forwarding live in federation_mesh_test.cpp and the
// randomized chaos harness.
#include <gtest/gtest.h>

#include <stdexcept>
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
  job.checkpoint_interval = 60.0;
  return job;
}

int completed_in(Platform& platform) {
  return platform.coordinator().stats().jobs_completed;
}

TEST(FederationForwardTest, OverflowForwardsToFreeRegionAndCompletes) {
  sim::Environment env(11);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Three 1-GPU jobs into a 1-GPU campus: one runs locally, two overflow.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("job-" + std::to_string(i),
                                     "group-alpha", 120.0, env.now()))
                    .is_ok());
  }
  env.run_until(600.0);

  const auto& alpha = fed.gateway("alpha").stats();
  const auto& beta = fed.gateway("beta").stats();
  EXPECT_GE(alpha.forwards_admitted, 2u);
  EXPECT_EQ(alpha.forwards_admitted, beta.remote_admitted);
  EXPECT_EQ(fed.region("alpha").coordinator().stats().jobs_withdrawn,
            static_cast<int>(alpha.forwards_admitted));
  // Every job completed somewhere in the federation.
  EXPECT_EQ(completed_in(fed.region("alpha")) +
                completed_in(fed.region("beta")),
            3);
  // The origin heard back about its forwarded jobs.
  EXPECT_EQ(alpha.remote_completions, alpha.forwards_admitted);
  EXPECT_EQ(fed.gateway("beta").remote_jobs_active(), 0);

  // Region-scoped provenance on both sides of the forward.
  const auto& beta_provenance =
      fed.region("beta").database().provenance_log();
  ASSERT_GE(beta_provenance.size(), 2u);
  for (const auto& row : beta_provenance) {
    EXPECT_EQ(row.origin_region, "alpha");
    EXPECT_EQ(row.executing_region, "beta");
  }
  const db::JobProvenance* origin_row =
      fed.region("alpha").database().provenance(beta_provenance[0].job_id);
  ASSERT_NE(origin_row, nullptr);
  EXPECT_EQ(origin_row->executing_region, "beta");

  // Federation traffic is accounted in its own class on the WAN and never
  // appears on a campus LAN.
  EXPECT_GT(fed.wan().bytes_sent(net::TrafficClass::kFederation), 0u);
  EXPECT_EQ(fed.region("alpha").network().bytes_sent(
                net::TrafficClass::kFederation),
            0u);
}

TEST(FederationForwardTest, AdmissionCapRefusesAndReroutes) {
  sim::Environment env(13);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  federation::RegionPolicy capped = fast_policy();
  capped.max_remote_jobs = 1;
  config.regions.push_back(make_region("beta", 3, capped));
  config.regions.push_back(make_region("gamma", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("job-" + std::to_string(i),
                                     "group-alpha", 150.0, env.now()))
                    .is_ok());
  }
  env.run_until(700.0);

  const auto& alpha = fed.gateway("alpha").stats();
  const auto& beta = fed.gateway("beta").stats();
  const auto& gamma = fed.gateway("gamma").stats();
  // Beta's autonomy held: it never hosted more than its cap at once, and
  // refused the rest, which re-routed to gamma.
  EXPECT_GE(beta.remote_refused_cap, 1u);
  EXPECT_GE(alpha.reroutes, 1u);
  EXPECT_GE(gamma.remote_admitted, 1u);
  EXPECT_EQ(beta.remote_admitted + gamma.remote_admitted,
            alpha.forwards_admitted);
  EXPECT_EQ(completed_in(fed.region("alpha")) +
                completed_in(fed.region("beta")) +
                completed_in(fed.region("gamma")),
            4);
}

TEST(FederationForwardTest, RemoteRefusalByPolicy) {
  sim::Environment env(17);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  federation::RegionPolicy closed = fast_policy();
  closed.accept_remote = false;
  config.regions.push_back(make_region("beta", 3, closed));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("job-" + std::to_string(i),
                                     "group-alpha", 60.0, env.now()))
                    .is_ok());
  }
  env.run_until(400.0);

  // Beta refused on policy; the job returned to alpha's queue and finished
  // there once the first job freed the GPU.
  EXPECT_GE(fed.gateway("beta").stats().remote_refused_policy, 1u);
  EXPECT_EQ(fed.gateway("beta").stats().remote_admitted, 0u);
  EXPECT_GE(fed.gateway("alpha").stats().forwards_returned, 1u);
  EXPECT_EQ(completed_in(fed.region("alpha")), 2);
  EXPECT_EQ(completed_in(fed.region("beta")), 0);
}

TEST(FederationForwardTest, StaleDigestIsRefusedThenRerouted) {
  sim::Environment env(19);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  // Beta gossips every 30 s: its t=30 digest shows 4 free GPUs, and alpha's
  // replica keeps ranking it on that snapshot long after beta has filled up.
  // Gamma gossips on the same cadence, so at ranking time both entries are
  // equally stale: the staleness discount ties and the region name puts
  // beta first.
  federation::RegionPolicy quiet = fast_policy();
  quiet.digest_interval = 30.0;
  config.regions.push_back(make_region("beta", 4, quiet));
  config.regions.push_back(make_region("gamma", 2, quiet));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(31.0);  // beta's "4 free GPUs" digest is on the books

  // Fill beta with local work so its real free capacity is zero.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fed.region("beta")
                    .coordinator()
                    .submit(training("beta-local-" + std::to_string(i),
                                     "group-beta", 600.0, env.now()))
                    .is_ok());
  }
  // Alpha: one job occupies its only GPU, the second must leave the campus.
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("alpha-busy", "group-alpha", 600.0,
                                   env.now()))
                  .is_ok());
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("alpha-overflow", "group-alpha", 120.0,
                                   env.now()))
                  .is_ok());
  env.run_until(400.0);

  const auto& alpha = fed.gateway("alpha").stats();
  const auto& beta = fed.gateway("beta").stats();
  const auto& gamma = fed.gateway("gamma").stats();
  // Alpha ranked beta first on stale data; beta's live admission refused;
  // the forward re-routed to gamma and ran there.
  EXPECT_GE(beta.remote_refused_capacity, 1u);
  EXPECT_GE(alpha.reroutes, 1u);
  EXPECT_GE(gamma.remote_admitted, 1u);
  EXPECT_GE(completed_in(fed.region("gamma")), 1);
  // Alpha really was deciding on old news when it ranked beta.
  EXPECT_GT(fed.stats().digest_age_max, 2 * fast_policy().digest_interval);
}

TEST(FederationOutageTest, FullCampusOutageMigratesCheckpointsCrossCampus) {
  sim::Environment env(23);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 2));
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Long training with periodic checkpoints on alpha.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("t-" + std::to_string(i), "group-alpha",
                                     600.0, env.now()))
                    .is_ok());
  }
  env.run_until(200.0);  // several checkpoint intervals of progress
  ASSERT_EQ(fed.region("alpha").coordinator().operational_stats().running, 2);

  fed.inject_region_outage("alpha", /*downtime=*/600.0);
  env.run_until(1400.0);

  const auto& alpha = fed.gateway("alpha").stats();
  const auto& beta = fed.gateway("beta").stats();
  // Both displaced jobs left the dead campus with their checkpoints and
  // resumed in beta from shipped durable progress.
  EXPECT_EQ(alpha.checkpoints_shipped, 2u);
  EXPECT_GT(alpha.checkpoint_bytes_shipped, 0u);
  EXPECT_EQ(beta.cross_campus_migrations_in, 2u);
  EXPECT_EQ(completed_in(fed.region("beta")), 2);
  EXPECT_EQ(alpha.remote_completions, 2u);
  // The shipped state crossed the WAN under the federation class.
  EXPECT_GE(fed.wan().bytes_sent(net::TrafficClass::kFederation),
            alpha.checkpoint_bytes_shipped);
  // Both sides can answer "whose job was this?".
  for (const std::string job_id : {"t-0", "t-1"}) {
    const db::JobProvenance* row =
        fed.region("beta").database().provenance(job_id);
    ASSERT_NE(row, nullptr) << job_id;
    EXPECT_EQ(row->origin_region, "alpha");
    EXPECT_EQ(row->executing_region, "beta");
  }
}

TEST(FederationForwardTest, MultiGpuJobUnplaceableOnFragmentedFleetForwards) {
  sim::Environment env(31);
  FederationConfig config;
  // Alpha has 2 free GPUs in aggregate — but on two separate single-GPU
  // workstations, so a 2-GPU job can never be placed locally.
  config.regions.push_back(make_region("alpha", 2));
  // Beta owns one 2xA100 server: the only node in the federation that
  // fits the job's shape.
  RegionConfig beta;
  beta.name = "beta";
  beta.campus.nodes.push_back({hw::server_2xa100("beta-big"), "group-beta"});
  beta.campus.storage.push_back({"nas-beta", 512ULL << 30});
  beta.campus.agent_defaults.telemetry_interval = 1e9;
  beta.campus.scrape_interval = 1e9;
  beta.policy = fast_policy();
  config.regions.push_back(std::move(beta));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  auto job = training("wide", "group-alpha", 120.0, env.now());
  job.requirements.gpu_count = 2;
  ASSERT_TRUE(fed.region("alpha").coordinator().submit(job).is_ok());
  env.run_until(400.0);

  // The per-node shape check forwarded it despite alpha's non-zero
  // aggregate free count, and beta's admission accepted what it can host.
  EXPECT_EQ(fed.gateway("alpha").stats().forwards_admitted, 1u);
  EXPECT_EQ(fed.gateway("beta").stats().remote_admitted, 1u);
  EXPECT_EQ(completed_in(fed.region("beta")), 1);
  const sched::JobRecord* record = fed.region("beta").coordinator().job("wide");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, sched::JobPhase::kCompleted);
}

TEST(FederationForwardTest, LossyWanNeverLosesJobs) {
  sim::Environment env(37);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  // One in five WAN messages silently vanishes.  Every protocol step must
  // recover: offers via timeouts, transfers via the ack/retry loop (the
  // origin keeps the job until the target acknowledges it).
  config.wan.drop_probability = 0.2;
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
  env.run_until(2000.0);

  // Conservation: every job completed in exactly one region; none were
  // lost to a dropped transfer and none ran twice.
  EXPECT_EQ(completed_in(fed.region("alpha")) +
                completed_in(fed.region("beta")),
            3);
  for (int i = 0; i < 3; ++i) {
    const std::string id = "job-" + std::to_string(i);
    const sched::JobRecord* in_alpha =
        fed.region("alpha").coordinator().job(id);
    const sched::JobRecord* in_beta = fed.region("beta").coordinator().job(id);
    EXPECT_TRUE((in_alpha != nullptr) != (in_beta != nullptr)) << id;
  }
  // No forward is stuck in flight once the dust settles.
  EXPECT_EQ(fed.gateway("alpha").withdrawn_in_flight(), 0);
}

TEST(FederationForwardTest, TransferResendBacksOffAcrossAPartition) {
  sim::Environment env(23);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  // Two jobs into a 1-GPU campus: one runs locally, one is forwarded.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("job-" + std::to_string(i),
                                     "group-alpha", 1200.0, env.now()))
                    .is_ok());
  }
  const auto& alpha = fed.gateway("alpha").stats();
  const auto& beta = fed.gateway("beta").stats();
  // Beta's accept starts the transfer; cut beta off the WAN in the same
  // instant, so the shipment dies on the wire.
  while (alpha.forwards_admitted == 0 && env.now() < 120.0 && env.step()) {
  }
  ASSERT_EQ(alpha.forwards_admitted, 1u);
  const util::SimTime sent = env.now();
  fed.set_region_wan_partitioned("beta", true);

  // The first deadline is the exact protocol timeout; the resend's is
  // twice that, jittered.  The partition heals between the two, after the
  // first resend was lost, so the second resend is the one that lands.
  std::vector<util::SimTime> resent;
  bool healed = false;
  while (resent.size() < 2 && env.now() < sent + 1000.0 && env.step()) {
    if (alpha.transfer_retries > resent.size()) resent.push_back(env.now());
    if (!healed && env.now() >= sent + 2.0 * federation::kTransferAckTimeout) {
      fed.set_region_wan_partitioned("beta", false);
      healed = true;
    }
  }
  ASSERT_EQ(resent.size(), 2u);
  EXPECT_DOUBLE_EQ(resent[0] - sent, federation::kTransferAckTimeout);
  const util::Duration backoff = 2.0 * federation::kTransferAckTimeout;
  EXPECT_GE(resent[1] - resent[0], backoff * (1.0 - federation::kRetryJitter));
  EXPECT_LE(resent[1] - resent[0], backoff * (1.0 + federation::kRetryJitter));
  EXPECT_GT(resent[1], sent + 2.0 * federation::kTransferAckTimeout)
      << "the second resend must follow the heal";
  EXPECT_EQ(beta.transfers_received, 0u) << "a shipment crossed the cut";

  env.run_until(env.now() + 1800.0);
  EXPECT_EQ(alpha.transfer_retries, 2u);
  EXPECT_EQ(alpha.transfers_delivered, 1u);
  EXPECT_EQ(beta.transfers_received, 1u);
  EXPECT_EQ(beta.remote_jobs_taken, 1u);
  EXPECT_EQ(fed.gateway("alpha").withdrawn_in_flight(), 0);
  EXPECT_EQ(completed_in(fed.region("alpha")), 1);
  EXPECT_EQ(completed_in(fed.region("beta")), 1);
}

TEST(FederationForwardTest, ForwardWhileLedgerUnflushedKeepsProvenance) {
  // Write-behind under federation: both campuses run the sharded DB with
  // flushing effectively disabled, so every withdraw/forward/admit happens
  // against ledgered-but-unflushed state.  Read-your-writes must hold on
  // both sides of the hand-off, and no job may be lost or duplicated.
  sim::Environment env(41);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("beta", 3));
  for (auto& region : config.regions) {
    region.campus.db.shard_count = 4;
    region.campus.db.write_behind = true;
    region.campus.db.flush_interval = 1e9;    // timer never fires
    region.campus.db.flush_threshold = 1u << 20;  // threshold never crossed
  }
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fed.region("alpha")
                    .coordinator()
                    .submit(training("wb-" + std::to_string(i),
                                     "group-alpha", 120.0, env.now()))
                    .is_ok());
  }
  env.run_until(600.0);

  const auto& alpha = fed.gateway("alpha").stats();
  ASSERT_GE(alpha.forwards_admitted, 2u);
  // Every withdraw-and-forward ran before ANY durable flush: the ledgers
  // still hold the entries, and the shards were never committed to.
  EXPECT_GT(fed.region("alpha").database().ledger().pending(), 0u);
  EXPECT_GT(fed.region("beta").database().ledger().pending(), 0u);
  EXPECT_EQ(fed.region("alpha").database().ledger().stats().flushes, 0u);
  EXPECT_EQ(fed.region("beta").database().ledger().stats().flushes, 0u);

  // Provenance is readable through the unflushed ledger on BOTH sides.
  int forwarded = 0;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "wb-" + std::to_string(i);
    const db::JobProvenance* in_beta =
        fed.region("beta").database().provenance(id);
    if (in_beta == nullptr) continue;  // the job that ran at home
    ++forwarded;
    EXPECT_EQ(in_beta->origin_region, "alpha");
    EXPECT_EQ(in_beta->executing_region, "beta");
    const db::JobProvenance* in_alpha =
        fed.region("alpha").database().provenance(id);
    ASSERT_NE(in_alpha, nullptr) << id;
    EXPECT_EQ(in_alpha->executing_region, "beta");
  }
  EXPECT_EQ(forwarded, static_cast<int>(alpha.forwards_admitted));

  // No lost or duplicated job: each id is known to exactly one coordinator
  // and every job completed exactly once across the federation.
  for (int i = 0; i < 3; ++i) {
    const std::string id = "wb-" + std::to_string(i);
    const bool in_alpha =
        fed.region("alpha").coordinator().job(id) != nullptr;
    const bool in_beta = fed.region("beta").coordinator().job(id) != nullptr;
    EXPECT_TRUE(in_alpha != in_beta) << id;
  }
  EXPECT_EQ(completed_in(fed.region("alpha")) +
                completed_in(fed.region("beta")),
            3);

  // A late durable flush changes accounting, never contents.
  const auto alpha_log = fed.region("alpha").database().provenance_log();
  const std::size_t alpha_allocs =
      fed.region("alpha").database().allocation_ledger().size();
  EXPECT_GT(fed.region("alpha").database().flush_ledger(), 0u);
  EXPECT_GT(fed.region("beta").database().flush_ledger(), 0u);
  EXPECT_EQ(fed.region("alpha").database().ledger().pending(), 0u);
  ASSERT_EQ(fed.region("alpha").database().provenance_log().size(),
            alpha_log.size());
  EXPECT_EQ(fed.region("alpha").database().allocation_ledger().size(),
            alpha_allocs);
}

TEST(FederationOutageTest, NoCandidateRegionsKeepsJobQueuedLocally) {
  sim::Environment env(29);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  FederatedPlatform fed(env, config);  // a federation of one
  fed.start();
  env.run_until(5.0);

  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("only-busy", "group-alpha", 300.0,
                                   env.now()))
                  .is_ok());
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("only-waiting", "group-alpha", 60.0,
                                   env.now()))
                  .is_ok());
  env.run_until(500.0);

  // Rankings come back empty; the job never leaves and both complete
  // locally once capacity frees.
  EXPECT_GE(fed.gateway("alpha").stats().forwards_aborted, 1u);
  EXPECT_EQ(fed.gateway("alpha").stats().forwards_attempted, 0u);
  EXPECT_EQ(completed_in(fed.region("alpha")), 2);
}

/// A campus of one workstation whose GPU opens into 4 time-slice seats,
/// under adaptive_sharing.
RegionConfig timesliced_region(const std::string& name,
                               federation::RegionPolicy policy =
                                   fast_policy()) {
  CampusConfig campus = small_campus(name, 0);
  campus.nodes.push_back(
      {hw::with_timeslicing(hw::workstation_3090(name + "-ws-0"), 4),
       "group-" + name});
  campus.coordinator.strategy = std::string(sched::kAdaptiveSharing);
  return RegionConfig{name, std::move(campus), policy};
}

/// A shareable single-GPU job with a bursty duty cycle: adaptive_sharing
/// wants a time-slice seat for it.
workload::JobSpec low_duty(const std::string& id, const std::string& group,
                           util::SimTime at) {
  auto job = training(id, group, 120.0, at);
  job.requirements.shareable = true;
  job.requirements.duty_cycle = 0.3;
  return job;
}

/// Opens `region`'s GPU into time-slice seats with a local session (no
/// whole GPU free, three seats free), then fills alpha's only GPU and
/// submits a low-duty job there that can only leave the campus.
void open_seats_and_overflow(sim::Environment& env, FederatedPlatform& fed,
                             const std::string& region) {
  ASSERT_TRUE(fed.region(region)
                  .coordinator()
                  .submit(workload::make_interactive_session(
                      region + "-session", 2.0, "group-" + region,
                      env.now()))
                  .is_ok());
  env.run_until(env.now() + 30.0);
  const sched::CapacitySummary summary =
      fed.region(region).coordinator().directory().capacity_summary();
  ASSERT_EQ(summary.free_gpus, 0);
  ASSERT_EQ(summary.free_seats[hw::Tenancy::kTimeslice], 3);
  ASSERT_EQ(summary.free_seats[hw::Tenancy::kFractional], 0);
  auto& origin = fed.region("alpha").coordinator();
  ASSERT_TRUE(
      origin.submit(training("alpha-busy", "group-alpha", 3600.0, env.now()))
          .is_ok());
  ASSERT_TRUE(
      origin.submit(low_duty("alpha-low-duty", "group-alpha", env.now()))
          .is_ok());
}

TEST(FederationTimesliceTest, RankingCountsFreeTimesliceSeats) {
  sim::Environment env(47);
  FederationConfig config;
  // Bravo and zulu gossip on the same cadence, so their entries are equally
  // stale at ranking time: two regions with the same fit tie exactly and
  // the name puts bravo first, so only the fit term can rank zulu ahead.
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("bravo", 1));
  config.regions.push_back(timesliced_region("zulu"));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);
  // Bravo's only GPU runs a whole-GPU job: nothing there fits.
  ASSERT_TRUE(fed.region("bravo")
                  .coordinator()
                  .submit(training("bravo-busy", "group-bravo", 3600.0,
                                   env.now()))
                  .is_ok());
  open_seats_and_overflow(env, fed, "zulu");
  env.run_until(env.now() + 120.0);

  // Zulu's free time-slice seat makes its digest fit the job, so alpha
  // offers it there first and nobody refuses.
  const auto& alpha = fed.gateway("alpha").stats();
  EXPECT_EQ(alpha.forwards_refused, 0u);
  EXPECT_EQ(fed.gateway("bravo").stats().remote_refused_capacity, 0u);
  EXPECT_EQ(fed.gateway("zulu").stats().remote_admitted, 1u);
  const sched::JobRecord* hosted =
      fed.region("zulu").coordinator().job("alpha-low-duty");
  ASSERT_NE(hosted, nullptr);
  EXPECT_EQ(hosted->tenancy, hw::Tenancy::kTimeslice);
}

TEST(FederationTimesliceTest, ReserveSparesJobsBoundForTimesliceSeats) {
  sim::Environment env(53);
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  federation::RegionPolicy reserving = fast_policy();
  reserving.min_free_gpus_reserve = 1;
  config.regions.push_back(timesliced_region("beta", reserving));
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);
  open_seats_and_overflow(env, fed, "beta");
  env.run_until(env.now() + 120.0);

  // Beta has no free whole GPU to keep back, but the job takes a seat on
  // the already time-sliced GPU, so the reserve does not refuse it.
  const auto& beta = fed.gateway("beta").stats();
  EXPECT_EQ(beta.remote_refused_capacity, 0u);
  EXPECT_EQ(beta.remote_admitted, 1u);
  const sched::JobRecord* hosted =
      fed.region("beta").coordinator().job("alpha-low-duty");
  ASSERT_NE(hosted, nullptr);
  EXPECT_EQ(hosted->tenancy, hw::Tenancy::kTimeslice);
}

TEST(FederationConfigTest, RejectsMissingEmptyAndDuplicateRegionNames) {
  // Checked in every build type: a region name keys region(), gateway()
  // and the gateway's WAN endpoint, so a second "alpha" would hide the
  // first and both gateways would claim gw-alpha.
  auto construct = [](const std::vector<std::string>& names) {
    sim::Environment env(43);
    FederationConfig config;
    for (const auto& name : names) {
      config.regions.push_back(make_region(name, 1));
    }
    FederatedPlatform fed(env, config);
  };
  EXPECT_THROW(construct({}), std::invalid_argument);
  EXPECT_THROW(construct({"alpha", ""}), std::invalid_argument);
  EXPECT_THROW(construct({"alpha", "beta", "alpha"}), std::invalid_argument);
  EXPECT_NO_THROW(construct({"alpha", "beta"}));
}

}  // namespace
}  // namespace gpunion
