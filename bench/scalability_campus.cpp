// §5.2 scalability push: full simulated campus runs at 1k/4k/10k nodes.
//
// The paper validates the coordinator to ~50 nodes and concedes that
// "beyond 200 nodes, heartbeat monitoring and database contention could
// become bottlenecks".  This bench drives the REAL platform (coordinator,
// agents, network, database) at 1,000 / 4,000 / 10,000 nodes under churn
// and reports the quantities that bound that claim:
//   - scheduling latency (submit -> first dispatch accept),
//   - heartbeat-sweep cost (expiry-ordered: work per sweep is O(expired)),
//   - database op rate, and the rate had every heartbeat been its own
//     write (the batched flushes' counters give it exactly),
//   - event-queue health (tombstone compaction).
//
// Emits machine-readable BENCH_scalability.json (override with --out).
// `--smoke` shrinks everything for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "util/logging.h"
#include "workload/profiles.h"
#include "workload/provider_behavior.h"

namespace gpunion::bench {
namespace {

// ---------------------------------------------------------------------------
// Full campus simulation at scale.
// ---------------------------------------------------------------------------

struct CampusRunResult {
  int nodes = 0;
  double sim_horizon_s = 0;
  double wall_s = 0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  int interruptions = 0;
  std::uint64_t heartbeats = 0;
  double mean_sched_latency_s = 0;
  double p99_sched_latency_s = 0;
  double db_ops_per_sim_s = 0;
  double db_ops_per_sim_s_unbatched_equiv = 0;
  std::uint64_t sweep_entries_examined = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t event_compactions = 0;
  std::size_t live_jobs_at_end = 0;
  std::size_t archived_jobs_at_end = 0;
  double wall_us_per_heartbeat = 0;
  // Sharded-DB / write-behind accounting (PR 4).
  int db_shards = 0;
  double db_sync_ops_per_sim_s = 0;
  std::uint64_t ledger_absorbed = 0;
  std::uint64_t ledger_flushes = 0;
};

CampusConfig synthetic_campus(int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090("ws-" + std::to_string(i)),
         "group-" + std::to_string(i % 16)});
  }
  config.storage.push_back({"nas-campus", 512ULL << 40});
  config.coordinator.heartbeat_interval = 2.0;
  config.coordinator.heartbeat_miss_threshold = 3;
  config.coordinator.strategy = std::string(sched::kRoundRobin);
  config.agent_defaults.heartbeat_interval = 2.0;
  // Telemetry and scrapes off the hot path: this bench isolates the
  // heartbeat + scheduling + churn control plane.
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  return config;
}

CampusRunResult run_campus(int nodes, double horizon, double churn_per_day,
                           std::uint64_t seed) {
  CampusRunResult r;
  r.nodes = nodes;
  r.sim_horizon_s = horizon;

  sim::Environment env(seed);
  Platform platform(env, synthetic_campus(nodes));
  r.wall_s = wall_seconds([&] {
    platform.start();
    env.run_until(5.0);

    // Load: one short training job per four nodes, one interactive
    // session per sixteen — enough to keep placement and completion
    // traffic flowing throughout the horizon.
    auto& coordinator = platform.coordinator();
    const int training = nodes / 4;
    for (int i = 0; i < training; ++i) {
      auto job = workload::make_training_job(
          "train-" + std::to_string(i), workload::cnn_small(),
          /*hours=*/0.02 + 0.02 * (i % 4), "group-" + std::to_string(i % 16),
          env.now());
      job.checkpoint_interval = 120.0;
      (void)coordinator.submit(std::move(job));
    }
    for (int i = 0; i < nodes / 16; ++i) {
      (void)coordinator.submit(workload::make_interactive_session(
          "sess-" + std::to_string(i), 0.05,
          "group-" + std::to_string(i % 16), env.now()));
    }

    // Churn across the whole fleet.
    workload::InterruptionModel model;
    model.events_per_day = churn_per_day;
    model.min_downtime = 60.0;
    model.max_downtime = 600.0;
    model.temporary_downtime = 120.0;
    auto interruptions = workload::generate_interruptions(
        platform.machine_ids(), horizon, model, util::Rng(seed + 1));
    for (const auto& event : interruptions) {
      platform.schedule_interruption(std::max(event.at, env.now()), event);
    }
    env.run_until(horizon);
  });

  const auto& stats = platform.coordinator().stats();
  const auto& monitor = platform.coordinator().heartbeat_monitor();
  r.jobs_submitted = stats.jobs_submitted;
  r.jobs_completed = stats.jobs_completed;
  r.interruptions = stats.interruptions;
  r.heartbeats = stats.heartbeats_processed;
  r.mean_sched_latency_s = stats.queue_wait.mean();
  r.p99_sched_latency_s = stats.queue_wait.percentile(99);
  r.db_ops_per_sim_s =
      static_cast<double>(platform.database().op_count()) / horizon;
  // Exact counterfactual: every coalesced touch would have been one op.
  r.db_ops_per_sim_s_unbatched_equiv =
      (static_cast<double>(platform.database().op_count()) +
       static_cast<double>(stats.heartbeat_db_touches_coalesced) -
       static_cast<double>(stats.heartbeat_db_flushes)) /
      horizon;
  r.sweep_entries_examined = monitor.total_examined();
  r.sweeps = monitor.sweeps();
  r.event_compactions = env.queue_stats().compactions;
  const db::ShardedDatabase& database = platform.database();
  r.db_shards = database.shard_count();
  r.db_sync_ops_per_sim_s =
      static_cast<double>(database.sync_op_count()) / horizon;
  r.ledger_absorbed = database.ledger().stats().absorbed;
  r.ledger_flushes = database.ledger().stats().flushes;
  const auto operational = platform.coordinator().operational_stats();
  r.live_jobs_at_end = static_cast<std::size_t>(operational.live_jobs);
  r.archived_jobs_at_end =
      static_cast<std::size_t>(operational.archived_jobs);
  r.wall_us_per_heartbeat =
      r.heartbeats == 0
          ? 0
          : r.wall_s * 1e6 / static_cast<double>(r.heartbeats);
  return r;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void print_campus(const CampusRunResult& r) {
  std::printf(
      "%7d %9.0f %8.1f %9llu %10.2f %10.2f %11.0f %13.0f %9llu %8zu\n",
      r.nodes, r.sim_horizon_s, r.wall_s,
      static_cast<unsigned long long>(r.heartbeats),
      r.mean_sched_latency_s * 1000.0, r.p99_sched_latency_s * 1000.0,
      r.db_ops_per_sim_s, r.db_ops_per_sim_s_unbatched_equiv,
      static_cast<unsigned long long>(r.sweep_entries_examined),
      r.archived_jobs_at_end);
}

void write_json(const std::string& path, const std::string& mode,
                const std::vector<CampusRunResult>& runs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"scalability\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"campus_runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    out << "    {\"nodes\": " << r.nodes
        << ", \"sim_horizon_s\": " << r.sim_horizon_s
        << ", \"wall_s\": " << r.wall_s
        << ", \"jobs_submitted\": " << r.jobs_submitted
        << ", \"jobs_completed\": " << r.jobs_completed
        << ", \"interruptions\": " << r.interruptions
        << ", \"heartbeats\": " << r.heartbeats
        << ", \"mean_sched_latency_s\": " << r.mean_sched_latency_s
        << ", \"p99_sched_latency_s\": " << r.p99_sched_latency_s
        << ", \"db_ops_per_sim_s\": " << r.db_ops_per_sim_s
        << ", \"db_ops_per_sim_s_unbatched_equiv\": "
        << r.db_ops_per_sim_s_unbatched_equiv
        << ", \"sweeps\": " << r.sweeps
        << ", \"sweep_entries_examined\": " << r.sweep_entries_examined
        << ", \"event_compactions\": " << r.event_compactions
        << ", \"live_jobs_at_end\": " << r.live_jobs_at_end
        << ", \"archived_jobs_at_end\": " << r.archived_jobs_at_end
        << ", \"db_shards\": " << r.db_shards
        << ", \"db_write_behind\": true"  // the store's only mode
        << ", \"db_sync_ops_per_sim_s\": " << r.db_sync_ops_per_sim_s
        << ", \"ledger_absorbed\": " << r.ledger_absorbed
        << ", \"ledger_flushes\": " << r.ledger_flushes
        << ", \"wall_us_per_heartbeat\": " << r.wall_us_per_heartbeat << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
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
  std::string out_path = "BENCH_scalability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  banner("Scalability — O(active) control plane at 1k/4k/10k nodes",
         "§5.2 (beyond the paper's 50-node validation)");

  // Full campus runs.
  std::printf("\nFull campus simulation under churn (real coordinator, "
              "agents, network, DB):\n\n");
  std::printf("%7s %9s %8s %9s %10s %10s %11s %13s %9s %8s\n", "nodes",
              "sim-s", "wall-s", "beats", "sched-ms", "p99-ms",
              "db-ops/s", "db-unbatched", "swept", "archive");
  row_divider(104);
  std::vector<CampusRunResult> runs;
  const std::vector<std::pair<int, double>> scales =
      smoke ? std::vector<std::pair<int, double>>{{100, 60.0}, {200, 60.0}}
            : std::vector<std::pair<int, double>>{
                  {1000, 300.0}, {4000, 180.0}, {10000, 120.0}};
  for (const auto& [nodes, horizon] : scales) {
    auto r = run_campus(nodes, horizon, /*churn_per_day=*/24.0, 1234);
    runs.push_back(r);
    print_campus(r);
  }

  std::printf("\nsched-ms/p99-ms in sim-milliseconds; db-unbatched = exact op rate "
              "had every heartbeat\nwritten through (batched flushes "
              "coalesce them); swept = total expiry-pops across\n"
              "all sweeps.\n");

  write_json(out_path, smoke ? "smoke" : "full", runs);
  return 0;
}
