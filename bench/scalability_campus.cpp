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
// PR 6 adds the parallel-execution-core sweep: the same campus under
// kDeterministic (legacy single-thread order) and kParallel with 1/2/4/8
// workers, reporting wall clock, per-worker CPU busy time, the critical-path
// "ideal parallel wall" (sum over conservative windows of the busiest
// worker's CPU time) and the exposed speedup total_busy/ideal — the honest
// concurrency number on a machine with fewer cores than workers — plus a
// 100k-node completion run.
//
// Emits machine-readable BENCH_scalability.json (override with --out).
// `--smoke` shrinks everything for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "gpunion/federated_platform.h"
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
  bool db_write_behind = false;
  double db_sync_ops_per_sim_s = 0;
  std::uint64_t ledger_absorbed = 0;
  std::uint64_t ledger_flushes = 0;
  // Execution-core accounting (PR 6).
  std::string exec_mode = "deterministic";
  int regions = 1;  // >1: federated run (one control-plane actor per region)
  int workers = 0;
  std::uint64_t windows = 0;
  std::uint64_t exclusive_events = 0;
  std::uint64_t causality_clamps = 0;
  double total_busy_s = 0;       // summed worker CPU time
  double ideal_wall_s = 0;       // critical path across windows
  double exposed_speedup = 0;    // total_busy / ideal (kParallel only)
  std::size_t processed_events = 0;
};

/// Execution-core counters shared by the single-campus and federated runs.
void fill_exec_stats(CampusRunResult& r, const sim::Environment& env) {
  r.exec_mode = env.mode() == sim::ExecutionMode::kParallel ? "parallel"
                                                            : "deterministic";
  r.workers = static_cast<int>(env.worker_count());
  r.processed_events = env.processed_events();
  const sim::ParallelStats& ps = env.parallel_stats();
  r.windows = ps.windows;
  r.exclusive_events = ps.exclusive_events;
  r.causality_clamps = ps.causality_clamps;
  r.total_busy_s = ps.total_busy_s;
  r.ideal_wall_s = ps.ideal_wall_s;
  r.exposed_speedup =
      ps.ideal_wall_s > 0 ? ps.total_busy_s / ps.ideal_wall_s : 0.0;
}

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
                           std::uint64_t seed,
                           const sim::EnvConfig& exec = sim::EnvConfig{}) {
  CampusRunResult r;
  r.nodes = nodes;
  r.sim_horizon_s = horizon;

  sim::Environment env(seed, exec);
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
      // Exclusive in kParallel (interruptions touch the coordinator AND an
      // agent); an ordinary event in kDeterministic — same legacy order.
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
  r.db_write_behind = database.config().write_behind;
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
  fill_exec_stats(r, env);
  return r;
}

/// The same control-plane workload split across `region_count` federated
/// campuses (one coordinator/database/gateway actor set per region, joined
/// by the WAN).  A single campus has exactly ONE control-plane actor, so
/// its heartbeat fan-in IS the critical path no matter how many workers
/// run — this is the configuration where the runtime has genuinely
/// concurrent control planes to spread across workers.
CampusRunResult run_federated_exec(int total_nodes, int region_count,
                                   double horizon, double churn_per_day,
                                   std::uint64_t seed,
                                   const sim::EnvConfig& exec) {
  CampusRunResult r;
  r.nodes = total_nodes;
  r.regions = region_count;
  r.sim_horizon_s = horizon;

  sim::Environment env(seed, exec);
  FederationConfig config;
  const int per_region = total_nodes / region_count;
  for (int g = 0; g < region_count; ++g) {
    const std::string name = "campus-" + std::to_string(g);
    CampusConfig campus = synthetic_campus(per_region);
    for (auto& node : campus.nodes) {
      node.spec.hostname = name + "-" + node.spec.hostname;
    }
    campus.storage.front().id = "nas-" + name;
    federation::RegionPolicy policy;
    policy.digest_interval = 10.0;
    config.regions.push_back({name, std::move(campus), policy});
  }
  config.wan.base_latency = 0.010;
  config.metrics_interval = 1e9;
  FederatedPlatform fed(env, config);

  r.wall_s = wall_seconds([&] {
    fed.start();
    env.run_until(5.0);
    for (std::size_t g = 0; g < fed.region_count(); ++g) {
      Platform& platform = fed.region(g);
      auto& coordinator = platform.coordinator();
      for (int i = 0; i < per_region / 4; ++i) {
        auto job = workload::make_training_job(
            "train-" + std::to_string(g) + "-" + std::to_string(i),
            workload::cnn_small(), /*hours=*/0.02 + 0.02 * (i % 4),
            "group-" + std::to_string(i % 16), env.now());
        job.checkpoint_interval = 120.0;
        (void)coordinator.submit(std::move(job));
      }
      workload::InterruptionModel model;
      model.events_per_day = churn_per_day;
      model.min_downtime = 60.0;
      model.max_downtime = 600.0;
      model.temporary_downtime = 120.0;
      auto interruptions = workload::generate_interruptions(
          platform.machine_ids(), horizon, model, util::Rng(seed + 1 + g));
      for (const auto& event : interruptions) {
        platform.schedule_interruption(std::max(event.at, env.now()), event);
      }
    }
    env.run_until(horizon);
  });

  for (std::size_t g = 0; g < fed.region_count(); ++g) {
    const auto& stats = fed.region(g).coordinator().stats();
    r.jobs_submitted += stats.jobs_submitted;
    r.jobs_completed += stats.jobs_completed;
    r.interruptions += stats.interruptions;
    r.heartbeats += stats.heartbeats_processed;
  }
  fill_exec_stats(r, env);
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
                const std::vector<CampusRunResult>& runs,
                const std::vector<CampusRunResult>& exec_runs) {
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
        << ", \"db_write_behind\": " << (r.db_write_behind ? "true" : "false")
        << ", \"db_sync_ops_per_sim_s\": " << r.db_sync_ops_per_sim_s
        << ", \"ledger_absorbed\": " << r.ledger_absorbed
        << ", \"ledger_flushes\": " << r.ledger_flushes
        << ", \"wall_us_per_heartbeat\": " << r.wall_us_per_heartbeat << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"execution\": {\n";
  out << "    \"hw_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "    \"note\": \"ideal_parallel_wall_s is the critical path: per "
         "conservative window, the busiest worker's CPU time; "
         "exposed_speedup = total_busy_s / ideal_parallel_wall_s.  Wall "
         "clock only reflects it when hw_concurrency >= workers.\",\n";
  out << "    \"runs\": [\n";
  for (std::size_t i = 0; i < exec_runs.size(); ++i) {
    const auto& r = exec_runs[i];
    out << "      {\"mode\": \"" << r.exec_mode << "\""
        << ", \"regions\": " << r.regions
        << ", \"workers\": " << r.workers
        << ", \"nodes\": " << r.nodes
        << ", \"sim_horizon_s\": " << r.sim_horizon_s
        << ", \"wall_s\": " << r.wall_s
        << ", \"processed_events\": " << r.processed_events
        << ", \"total_busy_s\": " << r.total_busy_s
        << ", \"ideal_parallel_wall_s\": " << r.ideal_wall_s
        << ", \"exposed_speedup\": " << r.exposed_speedup
        << ", \"windows\": " << r.windows
        << ", \"exclusive_events\": " << r.exclusive_events
        << ", \"causality_clamps\": " << r.causality_clamps
        << ", \"heartbeats\": " << r.heartbeats
        << ", \"jobs_completed\": " << r.jobs_completed << "}"
        << (i + 1 < exec_runs.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
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

  // Parallel execution core: the same campus under kDeterministic and
  // kParallel at 1/2/4/8 workers, plus a large completion run.
  std::printf("\nParallel execution core (threaded actor runtime, sharded "
              "event queue):\nexposed speedup = summed worker CPU busy / "
              "critical path across windows\n(wall clock only tracks it "
              "when the machine has >= workers cores; this host\nhas %u).\n\n",
              std::thread::hardware_concurrency());
  std::printf("%14s %8s %8s %7s %8s %8s %8s %9s %8s %8s\n", "mode",
              "regions", "workers", "nodes", "wall-s", "busy-s", "ideal-s",
              "speedup", "windows", "clamps");
  row_divider(98);
  std::vector<CampusRunResult> exec_runs;
  const int sweep_nodes = smoke ? 200 : 10000;
  const double sweep_horizon = smoke ? 60.0 : 120.0;
  auto print_exec = [](const CampusRunResult& r) {
    std::printf("%14s %8d %8d %7d %8.2f %8.2f %8.2f %8.2fx %8llu %8llu\n",
                r.exec_mode.c_str(), r.regions, r.workers, r.nodes, r.wall_s,
                r.total_busy_s, r.ideal_wall_s, r.exposed_speedup,
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.causality_clamps));
  };
  {
    auto r = run_campus(sweep_nodes, sweep_horizon, /*churn_per_day=*/24.0,
                        1234);
    exec_runs.push_back(r);
    print_exec(r);
  }
  for (const int workers : {1, 2, 4, 8}) {
    sim::EnvConfig exec;
    exec.mode = sim::ExecutionMode::kParallel;
    exec.worker_threads = static_cast<std::size_t>(workers);
    auto r = run_campus(sweep_nodes, sweep_horizon, /*churn_per_day=*/24.0,
                        1234, exec);
    exec_runs.push_back(r);
    print_exec(r);
  }
  // The same fleet split across 4 federated campuses: one control-plane
  // actor (coordinator + database + gateway) per region instead of one
  // total.  A single campus's coordinator IS the critical path regardless
  // of worker count; this is the shape with genuine control-plane
  // concurrency for the runtime to expose.
  std::printf("\n");
  {
    sim::EnvConfig det;
    auto r = run_federated_exec(sweep_nodes, /*region_count=*/4,
                                sweep_horizon, /*churn_per_day=*/24.0, 1234,
                                det);
    exec_runs.push_back(r);
    print_exec(r);
  }
  for (const int workers : {1, 2, 4, 8}) {
    sim::EnvConfig exec;
    exec.mode = sim::ExecutionMode::kParallel;
    exec.worker_threads = static_cast<std::size_t>(workers);
    auto r = run_federated_exec(sweep_nodes, /*region_count=*/4,
                                sweep_horizon, /*churn_per_day=*/24.0, 1234,
                                exec);
    exec_runs.push_back(r);
    print_exec(r);
  }
  {
    // Completion run at an order of magnitude beyond the sweep: does the
    // runtime hold together at 100k actors?
    const int large_nodes = smoke ? 400 : 100000;
    const double large_horizon = smoke ? 30.0 : 30.0;
    sim::EnvConfig exec;
    exec.mode = sim::ExecutionMode::kParallel;
    exec.worker_threads = 4;
    auto r = run_campus(large_nodes, large_horizon, /*churn_per_day=*/4.0,
                        1234, exec);
    exec_runs.push_back(r);
    print_exec(r);
  }

  write_json(out_path, smoke ? "smoke" : "full", runs, exec_runs);
  return 0;
}
