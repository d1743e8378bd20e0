// Federation at scale: multi-campus regions with a full-region outage
// absorbed by the rest of the federation.  The gateways replicate the
// region directory via peer-to-peer gossip and answer placement queries
// locally; this bench drives the REAL federated platform (regional
// coordinators, agents, campus LANs, WAN, gateways):
//
//   - outage run: 3 regions (2k + 1k + 1k nodes) under churn — outage
//     absorption, gossip volume, placement queries answered locally;
//   - drain run: 3 smaller regions, no churn, long horizon — every job
//     displaced by the outage must complete elsewhere, none stranded;
//   - consistency checks: federation stats must agree with per-region
//     coordinator records (withdrawals, admissions, provenance).
//
// The retired single-broker hub's numbers for the same scenarios stay in
// the committed BENCH_federation.json (its "hub" arms).
//
// Emits machine-readable BENCH_federation.json (override with --out).
// `--smoke` shrinks to 2 small regions for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "gpunion/federated_platform.h"
#include "util/logging.h"
#include "workload/profiles.h"
#include "workload/provider_behavior.h"

namespace gpunion::bench {
namespace {

struct RegionSpec {
  std::string name;
  int nodes = 0;
};

struct RegionResult {
  std::string name;
  int nodes = 0;
  int gpus = 0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  int jobs_withdrawn = 0;
  int interruptions = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t digests_published = 0;
  std::uint64_t forwards_admitted_out = 0;
  std::uint64_t forwards_returned = 0;
  std::uint64_t remote_admitted_in = 0;
  std::uint64_t remote_refused = 0;
  std::uint64_t cross_campus_migrations_in = 0;
  std::uint64_t checkpoints_shipped = 0;
  /// Jobs displaced from the outage region that finished here (counted via
  /// DB provenance against this region's coordinator records).
  int absorbed_from_outage = 0;
  double mean_sched_latency_s = 0;
};

struct FederationRunResult {
  std::string name;
  double horizon_s = 0;
  double wall_s = 0;
  std::string outage_region;
  double outage_at_s = 0;
  std::vector<RegionResult> regions;
  double digest_age_mean_s = 0;
  double digest_age_max_s = 0;
  std::uint64_t local_rankings = 0;
  std::uint64_t gossips_sent = 0;
  std::uint64_t chain_loops_avoided = 0;
  std::uint64_t forward_timeouts = 0;
  // Cross-campus outcome.
  std::uint64_t cross_campus_migrations = 0;
  int absorbed_completed = 0;
  /// Live non-terminal jobs at the horizon, federation-wide (a healthy
  /// drain run reaches 0).
  int stranded_nonterminal = 0;
  // WAN accounting.
  std::uint64_t federation_wan_bytes = 0;
  double peak_federation_utilization = 0;
  /// Per-peer WAN pairs (gossip + shipments).
  std::vector<std::pair<std::string, std::uint64_t>> wan_peer_bytes;
  // Consistency checks (federation stats vs coordinator records).
  bool withdrawals_consistent = false;
  bool admissions_consistent = false;
  bool migrations_consistent = false;
  bool provenance_consistent = false;
  bool consistency_pass = false;
};

CampusConfig region_campus(const std::string& name, int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090(name + "-ws-" + std::to_string(i)),
         "group-" + name + "-" + std::to_string(i % 8)});
  }
  config.storage.push_back({"nas-" + name, 512ULL << 40});
  config.coordinator.heartbeat_interval = 2.0;
  config.coordinator.heartbeat_miss_threshold = 3;
  config.agent_defaults.heartbeat_interval = 2.0;
  // Isolate the federated control plane, as in bench_scalability_campus.
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

FederationRunResult run_federation(const std::string& name,
                                   const std::vector<RegionSpec>& specs,
                                   double horizon,
                                   const std::string& outage_region,
                                   double outage_at, double churn_per_day,
                                   double wan_gbps, std::uint64_t seed) {
  FederationRunResult r;
  r.name = name;
  r.horizon_s = horizon;
  r.outage_region = outage_region;
  r.outage_at_s = outage_at;

  sim::Environment env(seed);
  FederationConfig config;
  for (const auto& spec : specs) {
    federation::RegionPolicy policy;
    policy.digest_interval = 10.0;
    policy.forward_after = 30.0;
    policy.forward_timeout = 30.0;
    policy.forward_retry_backoff = 60.0;
    policy.max_remote_jobs = 1024;
    // An outage burst queues dozens of multi-GB shipments FIFO on the WAN
    // channel; reservations must outlive that backlog.
    policy.reservation_ttl = 180.0;
    config.regions.push_back(
        {spec.name, region_campus(spec.name, spec.nodes), policy});
  }
  // Inter-campus research WAN (Internet2-class links between campuses);
  // the federation channel is capped well below the line rate.
  config.wan.base_latency = 0.010;  // 10 ms inter-campus RTT scale
  config.wan.backbone_gbps = 2.5 * wan_gbps;
  config.wan.default_access_gbps = 2.5 * wan_gbps;
  config.wan.federation_wan_gbps = wan_gbps;
  config.metrics_interval = 1e9;
  FederatedPlatform fed(env, config);

  r.wall_s = wall_seconds([&] {
    fed.start();
    env.run_until(5.0);

    // Campus images are pre-staged on every node (the overnight rollout a
    // real deployment does); this bench measures the federation control
    // plane and WAN checkpoint shipping, not cold image distribution.
    for (const auto& spec : specs) {
      auto& platform = fed.region(spec.name);
      for (const auto& machine_id : platform.machine_ids()) {
        auto* provider = platform.agent(machine_id);
        provider->runtime().mark_image_cached("pytorch:2.3-cuda12.1");
        provider->runtime().mark_image_cached("jupyter-dl:latest");
      }
    }

    // Load per region: one short training job per four nodes, one
    // interactive session per sixteen, like the single-campus scalability
    // bench — plus churn across every region.
    for (const auto& spec : specs) {
      auto& coordinator = fed.region(spec.name).coordinator();
      for (int i = 0; i < spec.nodes / 4; ++i) {
        auto job = workload::make_training_job(
            spec.name + "-train-" + std::to_string(i), workload::cnn_small(),
            /*hours=*/0.02 + 0.02 * (i % 4),
            "group-" + spec.name + "-" + std::to_string(i % 8), env.now());
        job.checkpoint_interval = 30.0;
        (void)coordinator.submit(std::move(job));
      }
      for (int i = 0; i < spec.nodes / 16; ++i) {
        (void)coordinator.submit(workload::make_interactive_session(
            spec.name + "-sess-" + std::to_string(i), 0.05,
            "group-" + spec.name + "-" + std::to_string(i % 8), env.now()));
      }
    }
    if (churn_per_day > 0) {
      std::uint64_t churn_seed = seed + 1;
      for (const auto& spec : specs) {
        workload::InterruptionModel model;
        model.events_per_day = churn_per_day;
        model.min_downtime = 60.0;
        model.max_downtime = 600.0;
        model.temporary_downtime = 120.0;
        auto& platform = fed.region(spec.name);
        auto interruptions = workload::generate_interruptions(
            platform.machine_ids(), horizon, model, util::Rng(churn_seed++));
        for (const auto& event : interruptions) {
          if (spec.name == outage_region && event.at >= outage_at) {
            continue;  // the whole campus is dark by then anyway
          }
          env.schedule_at(
              std::max(event.at, env.now()),
              [&platform, event] { platform.inject_interruption(event); });
        }
      }
    }

    env.schedule_at(outage_at, [&fed, outage_region, horizon] {
      // Dark until past the horizon: the displaced load has nowhere to go
      // but the other campuses.
      fed.inject_region_outage(outage_region, 2.0 * horizon);
    });
    env.run_until(horizon);
  });

  // --- Harvest --------------------------------------------------------------
  std::uint64_t forwards_admitted_total = 0;
  std::uint64_t transfers_delivered_total = 0;
  std::uint64_t remote_jobs_taken_total = 0;
  std::uint64_t remote_admitted_total = 0;
  std::uint64_t reservations_expired_total = 0;
  bool withdrawals_ok = true;
  bool provenance_ok = true;
  for (const auto& spec : specs) {
    auto& platform = fed.region(spec.name);
    auto& gateway = fed.gateway(spec.name);
    const auto& coordinator_stats = platform.coordinator().stats();
    const auto& gw = gateway.stats();
    RegionResult region;
    region.name = spec.name;
    region.nodes = spec.nodes;
    region.gpus = platform.total_gpus();
    region.jobs_submitted = coordinator_stats.jobs_submitted;
    region.jobs_completed = coordinator_stats.jobs_completed;
    region.jobs_withdrawn = coordinator_stats.jobs_withdrawn;
    region.interruptions = coordinator_stats.interruptions;
    region.heartbeats = coordinator_stats.heartbeats_processed;
    region.digests_published = gw.digests_published;
    region.forwards_admitted_out = gw.forwards_admitted;
    region.forwards_returned = gw.forwards_returned;
    region.remote_admitted_in = gw.remote_admitted;
    region.remote_refused = gw.remote_refused_policy +
                            gw.remote_refused_cap +
                            gw.remote_refused_capacity +
                            gw.remote_refused_duplicate;
    region.cross_campus_migrations_in = gw.cross_campus_migrations_in;
    region.checkpoints_shipped = gw.checkpoints_shipped;
    region.mean_sched_latency_s = coordinator_stats.queue_wait.mean();

    const auto operational = platform.coordinator().operational_stats();
    // Withdrawn-but-undelivered forwards live at the gateway, not in any
    // coordinator — without them a transfer stuck in its retry loop at
    // the horizon would not count as stranded.
    r.stranded_nonterminal += operational.pending + operational.dispatching +
                              operational.running +
                              gateway.withdrawn_in_flight();

    // Consistency (per-region coordinator records vs federation stats):
    // every withdrawal either was delivered to another region, returned
    // home (refusals, transfer bounces), or is still in flight at the
    // horizon.
    const std::uint64_t accounted =
        gw.transfers_delivered + gw.forwards_returned +
        static_cast<std::uint64_t>(gateway.withdrawn_in_flight());
    if (static_cast<std::uint64_t>(region.jobs_withdrawn) != accounted) {
      withdrawals_ok = false;
    }
    // Provenance: one executor row per admitted transfer, and for each
    // job whose LATEST row names this region as executor the coordinator
    // must still know the job — unless it is mid-chained-forward (the
    // gateway holds it in flight, correct protocol behavior at any cut).
    int executed_here = 0;
    for (const auto& row : platform.database().provenance_log()) {
      if (row.executing_region != spec.name) continue;
      ++executed_here;
      const db::JobProvenance* latest =
          platform.database().provenance(row.job_id);
      if (latest != &row) continue;  // superseded hop record
      const sched::JobRecord* record = platform.coordinator().job(row.job_id);
      if (record == nullptr && !gateway.forwarding(row.job_id)) {
        provenance_ok = false;
      }
      if (row.origin_region == outage_region && record != nullptr &&
          record->phase == sched::JobPhase::kCompleted) {
        ++region.absorbed_from_outage;
      }
    }
    if (executed_here != static_cast<int>(gw.remote_jobs_taken)) {
      provenance_ok = false;
    }

    forwards_admitted_total += gw.forwards_admitted;
    transfers_delivered_total += gw.transfers_delivered;
    remote_jobs_taken_total += gw.remote_jobs_taken;
    remote_admitted_total += gw.remote_admitted;
    reservations_expired_total += gw.reservations_expired;
    r.forward_timeouts += gw.forward_timeouts;
    r.absorbed_completed += region.absorbed_from_outage;
    r.regions.push_back(std::move(region));
  }

  const FederatedStats fed_stats = fed.stats();
  r.digest_age_mean_s = fed_stats.digest_age_mean;
  r.digest_age_max_s = fed_stats.digest_age_max;
  r.local_rankings = fed_stats.local_rankings;
  r.gossips_sent = fed_stats.gossips_sent;
  r.chain_loops_avoided = fed_stats.chain_loops_avoided;
  r.cross_campus_migrations = fed_stats.cross_campus_migrations;
  r.federation_wan_bytes =
      fed.wan().bytes_sent(net::TrafficClass::kFederation);
  r.peak_federation_utilization = fed.wan().peak_class_utilization(
      {net::TrafficClass::kFederation}, 0, horizon);
  for (const auto& [pair, bytes] : fed.wan().federation_peer_bytes()) {
    r.wan_peer_bytes.push_back({pair.first + "<->" + pair.second, bytes});
  }

  r.withdrawals_consistent = withdrawals_ok;
  // A transfer the origin counts delivered is exactly one the target
  // counts hosted — the ack protocol makes hand-offs atomic (an undrained
  // in-flight ack at the horizon would show up in withdrawn_in_flight and
  // is checked above).
  r.admissions_consistent =
      transfers_delivered_total == remote_jobs_taken_total &&
      forwards_admitted_total >= transfers_delivered_total;
  // At quiescence every delivered checkpoint shipment seeded exactly one
  // cross-campus resume (shipped is counted at the origin's delivery ack,
  // migrations at the target's submit — the same hand-offs).
  r.migrations_consistent =
      fed_stats.cross_campus_migrations == fed_stats.checkpoints_shipped &&
      fed_stats.checkpoints_shipped <= forwards_admitted_total;
  r.provenance_consistent = provenance_ok;
  r.consistency_pass = r.withdrawals_consistent && r.admissions_consistent &&
                       r.migrations_consistent && r.provenance_consistent;
  return r;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void print_run(const FederationRunResult& r) {
  std::printf("\n[%s] Per-region results (%.0f sim-s horizon, %.1f s wall; "
              "outage: %s at t=%.0f s):\n\n",
              r.name.c_str(), r.horizon_s, r.wall_s,
              r.outage_region.c_str(), r.outage_at_s);
  std::printf("%8s %6s %9s %9s %9s %8s %8s %8s %9s %9s\n", "region", "nodes",
              "beats", "submit", "complete", "fwd-out", "adm-in", "refused",
              "ckpt-out", "absorbed");
  row_divider(96);
  for (const auto& region : r.regions) {
    std::printf(
        "%8s %6d %9llu %9d %9d %8llu %8llu %8llu %9llu %9d\n",
        region.name.c_str(), region.nodes,
        static_cast<unsigned long long>(region.heartbeats),
        region.jobs_submitted, region.jobs_completed,
        static_cast<unsigned long long>(region.forwards_admitted_out),
        static_cast<unsigned long long>(region.remote_admitted_in),
        static_cast<unsigned long long>(region.remote_refused),
        static_cast<unsigned long long>(region.checkpoints_shipped),
        region.absorbed_from_outage);
  }
  std::printf(
      "\n%llu placement queries answered from local replicas, %llu "
      "directory pushes\nbetween gateways (O(regions) bytes each).\n",
      static_cast<unsigned long long>(r.local_rankings),
      static_cast<unsigned long long>(r.gossips_sent));
  std::printf(
      "\nOutage absorption: %d displaced jobs from %s completed in other "
      "regions\n(%llu cross-campus checkpoint migrations, %.2f GB over the "
      "WAN, peak %.1f%% of backbone;\n%d non-terminal jobs stranded at the "
      "horizon).\n",
      r.absorbed_completed, r.outage_region.c_str(),
      static_cast<unsigned long long>(r.cross_campus_migrations),
      static_cast<double>(r.federation_wan_bytes) / 1e9,
      100.0 * r.peak_federation_utilization, r.stranded_nonterminal);
  std::printf("Digest staleness at ranking time: mean %.1f s, max %.1f s.\n",
              r.digest_age_mean_s, r.digest_age_max_s);
  std::printf(
      "Consistency: withdrawals %s, admissions %s, migrations %s, "
      "provenance %s -> %s\n",
      r.withdrawals_consistent ? "OK" : "FAIL",
      r.admissions_consistent ? "OK" : "FAIL",
      r.migrations_consistent ? "OK" : "FAIL",
      r.provenance_consistent ? "OK" : "FAIL",
      r.consistency_pass ? "PASS" : "FAIL");
}

void write_run(std::ofstream& out, const std::string& indent,
               const FederationRunResult& r) {
  out << indent << "\"topology\": \"mesh\",\n";
  out << indent << "\"horizon_s\": " << r.horizon_s << ",\n";
  out << indent << "\"wall_s\": " << r.wall_s << ",\n";
  out << indent << "\"outage_region\": \"" << r.outage_region << "\",\n";
  out << indent << "\"outage_at_s\": " << r.outage_at_s << ",\n";
  out << indent << "\"regions\": [\n";
  for (std::size_t i = 0; i < r.regions.size(); ++i) {
    const auto& region = r.regions[i];
    out << indent << "  {\"name\": \"" << region.name << "\""
        << ", \"nodes\": " << region.nodes << ", \"gpus\": " << region.gpus
        << ", \"jobs_submitted\": " << region.jobs_submitted
        << ", \"jobs_completed\": " << region.jobs_completed
        << ", \"jobs_withdrawn\": " << region.jobs_withdrawn
        << ", \"interruptions\": " << region.interruptions
        << ", \"heartbeats\": " << region.heartbeats
        << ", \"digests_published\": " << region.digests_published
        << ", \"forwards_admitted_out\": " << region.forwards_admitted_out
        << ", \"forwards_returned\": " << region.forwards_returned
        << ", \"remote_admitted_in\": " << region.remote_admitted_in
        << ", \"remote_refused\": " << region.remote_refused
        << ", \"cross_campus_migrations_in\": "
        << region.cross_campus_migrations_in
        << ", \"checkpoints_shipped\": " << region.checkpoints_shipped
        << ", \"absorbed_from_outage\": " << region.absorbed_from_outage
        << ", \"mean_sched_latency_s\": " << region.mean_sched_latency_s
        << "}" << (i + 1 < r.regions.size() ? "," : "") << "\n";
  }
  out << indent << "],\n";
  out << indent << "\"placement_queries\": {\"local_rankings\": "
      << r.local_rankings
      << ", \"chain_loops_avoided\": " << r.chain_loops_avoided << "},\n";
  out << indent << "\"gossip\": {\"pushes_sent\": " << r.gossips_sent
      << ", \"digest_age_mean_s\": " << r.digest_age_mean_s
      << ", \"digest_age_max_s\": " << r.digest_age_max_s << "},\n";
  out << indent << "\"outage_absorption\": {\"cross_campus_migrations\": "
      << r.cross_campus_migrations
      << ", \"absorbed_completed\": " << r.absorbed_completed
      << ", \"stranded_nonterminal\": " << r.stranded_nonterminal
      << ", \"forward_timeouts\": " << r.forward_timeouts
      << ", \"federation_wan_bytes\": " << r.federation_wan_bytes
      << ", \"peak_federation_utilization\": "
      << r.peak_federation_utilization << "},\n";
  out << indent << "\"wan_peer_bytes\": [";
  for (std::size_t i = 0; i < r.wan_peer_bytes.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{\"pair\": \""
        << r.wan_peer_bytes[i].first << "\", \"bytes\": "
        << r.wan_peer_bytes[i].second << "}";
  }
  out << "],\n";
  out << indent << "\"consistency\": {\"withdrawals\": "
      << (r.withdrawals_consistent ? "true" : "false")
      << ", \"admissions\": " << (r.admissions_consistent ? "true" : "false")
      << ", \"migrations\": " << (r.migrations_consistent ? "true" : "false")
      << ", \"provenance\": " << (r.provenance_consistent ? "true" : "false")
      << ", \"pass\": " << (r.consistency_pass ? "true" : "false") << "}\n";
}

void write_json(const std::string& path, const std::string& mode,
                const FederationRunResult& outage,
                const FederationRunResult& drain) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"federation\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"outage\": {\n";
  write_run(out, "    ", outage);
  out << "  },\n";
  out << "  \"drain\": {\n";
  write_run(out, "    ", drain);
  out << "  }\n";
  out << "}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace gpunion::bench

int main(int argc, char** argv) {
  using namespace gpunion;
  using namespace gpunion::bench;
  util::Logger::instance().set_level(util::LogLevel::kError);

  bool smoke = false;
  std::string out_path = "BENCH_federation.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  banner("Federation — replicated-directory gossip, outage absorption, "
         "cross-campus migration",
         "beyond the paper: SHARY-style federation of GPUnion campuses");

  const std::vector<RegionSpec> big =
      smoke ? std::vector<RegionSpec>{{"north", 80}, {"south", 40}}
            : std::vector<RegionSpec>{{"north", 2000}, {"south", 1000},
                                      {"east", 1000}};
  const std::vector<RegionSpec> small =
      smoke ? std::vector<RegionSpec>{{"north", 48}, {"south", 24}}
            : std::vector<RegionSpec>{{"north", 300}, {"south", 150},
                                      {"east", 150}};
  const double horizon = smoke ? 420.0 : 480.0;
  // Long enough for a healthy federation to fully drain, so any non-zero
  // stranded count is a job the federation failed to absorb.
  const double drain_horizon = 900.0;
  const double wan_gbps = smoke ? 1.0 : 40.0;
  const double drain_wan_gbps = smoke ? 1.0 : 10.0;

  // Churny outage scenario.
  FederationRunResult outage = run_federation(
      "outage", big, horizon, "south",
      /*outage_at=*/smoke ? 120.0 : 150.0,
      /*churn_per_day=*/24.0, wan_gbps, /*seed=*/1234);
  print_run(outage);

  // Drain: no churn (isolate the outage), long horizon.
  FederationRunResult drain = run_federation(
      "drain", small, drain_horizon, "south",
      /*outage_at=*/150.0,
      /*churn_per_day=*/0.0, drain_wan_gbps, /*seed=*/4321);
  print_run(drain);

  write_json(out_path, smoke ? "smoke" : "full", outage, drain);

  const bool pass =
      outage.consistency_pass && drain.consistency_pass &&
      outage.absorbed_completed > 0 && outage.local_rankings > 0 &&
      drain.absorbed_completed > 0 && drain.stranded_nonterminal == 0;
  return pass ? 0 : 1;
}
