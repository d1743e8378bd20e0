// Crash-consistency & recovery bench: what a control-plane crash costs
// and what the WAL + recovery replay machinery preserves.
//
// Three experiments, emitted as machine-readable BENCH_recovery.json
// (override with --out; `--smoke` shrinks everything for CI):
//
//   1. WAL replay micro-sweep — recovery latency vs. log depth.  A
//      write-behind database accumulates N acked-but-unflushed ledger
//      records, then crash_and_recover() rebuilds from durable state.
//      Reports wall time and per-record replay cost at each depth.
//
//   2. Campus crash campaign — each named crash point (pre-ack,
//      post-ack-pre-flush, mid-group-commit) fired three times into a
//      live campus draining a job backlog.  Reports jobs preserved
//      (completed == submitted, the exactly-once contract), WAL records
//      replayed, and the makespan penalty vs. an identical crash-free
//      run — i.e. what three control-plane crashes actually cost users.
//
//   3. Region rejoin — a federated region's control plane crashes and
//      restarts; time until its directory regains the full federation
//      view through the anti-entropy pull.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "db/sharded_database.h"
#include "gpunion/federated_platform.h"
#include "sim/fault_injector.h"
#include "util/logging.h"
#include "workload/profiles.h"

namespace gpunion::bench {
namespace {

// ---------------------------------------------------------------------------
// 1. WAL replay micro-sweep
// ---------------------------------------------------------------------------

struct SweepPoint {
  std::size_t depth = 0;        // records in the WAL at the crash
  std::size_t replayed = 0;     // records recovery actually re-applied
  double recover_us = 0;        // wall time of crash_and_recover()
  double us_per_record = 0;
};

SweepPoint sweep_at_depth(std::size_t depth) {
  db::DbConfig config;
  config.flush_threshold = depth + 1;  // never auto-flush during the fill
  db::ShardedDatabase database(config);
  db::NodeRecord node;
  node.machine_id = "m-0";
  node.hostname = "host-0";
  node.gpu_count = 2;
  (void)database.upsert_node(node);
  database.flush_ledger();

  // Fill the log with the deferred mutations a busy coordinator produces:
  // allocations opening, queue rows, provenance hops.
  double now = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    now += 0.1;
    switch (i % 3) {
      case 0:
        database.open_allocation("job-" + std::to_string(i), "m-0", {0}, now);
        break;
      case 1:
        database.enqueue_request({"job-" + std::to_string(i), 0, now});
        break;
      default:
        database.record_provenance(
            {"job-" + std::to_string(i), "home", "home", now, ""});
        break;
    }
  }

  SweepPoint point;
  point.depth = database.wal().depth();
  db::RecoveryReport report;
  point.recover_us =
      1e6 * wall_seconds([&] { report = database.crash_and_recover(); });
  point.replayed = report.replayed;
  point.us_per_record =
      point.replayed == 0 ? 0 : point.recover_us / point.replayed;
  return point;
}

// ---------------------------------------------------------------------------
// 2. Campus crash campaign
// ---------------------------------------------------------------------------

CampusConfig crash_campus(int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back({hw::workstation_3090("cr-" + std::to_string(i)),
                            "group-" + std::to_string(i % 4)});
  }
  config.storage.push_back({"nas-cr", 512ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  config.db.flush_threshold = 1u << 20;  // interval commits only
  config.db.flush_interval = 30.0;
  return config;
}

struct CampaignOutcome {
  std::string point;            // crash-point name ("" = crash-free baseline)
  int submitted = 0;
  int completed = 0;
  int recoveries = 0;
  std::uint64_t crashes_fired = 0;
  std::uint64_t wal_replayed = 0;
  double makespan_s = 0;        // last job completion, sim time
  double wall_s = 0;
  bool jobs_preserved = false;  // completed == submitted, conservation holds
};

/// One campaign: `jobs` short training jobs drain through `nodes` machines
/// while `point` (if non-empty) fires three times, once after each fresh
/// submission wave.
CampaignOutcome run_campaign(int nodes, int jobs, const std::string& point,
                             std::uint64_t seed) {
  CampaignOutcome outcome;
  outcome.point = point;
  sim::Environment env(seed);
  Platform platform(env, crash_campus(nodes));

  outcome.wall_s = wall_seconds([&] {
    platform.start();
    platform.register_crash_points(/*downtime=*/1.5);
    env.run_until(5.0);

    util::Rng rng(seed * 977 + 13);
    auto submit_batch = [&](int count) {
      for (int i = 0; i < count && outcome.submitted < jobs; ++i) {
        auto job = workload::make_training_job(
            "job-" + std::to_string(outcome.submitted), workload::cnn_small(),
            rng.uniform(0.01, 0.03),
            "group-" + std::to_string(outcome.submitted % 4), env.now());
        job.checkpoint_interval = 30.0;
        (void)platform.coordinator().submit(std::move(job));
        ++outcome.submitted;
      }
    };
    submit_batch(jobs - 6);
    // A wave's own records do not stay in the WAL: each submit's
    // synchronous job-state write applies its deferred enqueue to the
    // shard image at once.  So each trigger fires at the first event after
    // its wave at which the WAL holds a deferred record (an allocation a
    // dispatch opens or a completion closes), and the dirty points find
    // acked work that only the WAL holds.  The next wave comes 20 s after
    // the trigger, well past the downtime, so every trigger finds a live
    // control plane.  The baseline walks the same timeline, minus the
    // crashes.
    const db::LedgerWal& wal = platform.database().wal();
    util::SimTime wave_at = 20.0;
    for (int wave = 0; wave < 3; ++wave) {
      env.run_until(wave_at);
      submit_batch(2);
      env.run_until(wave_at + 0.1);
      while (wal.depth() == 0 && env.now() < 1800.0 && env.step()) {
      }
      if (!point.empty()) {
        (void)platform.fault_injector().inject_now(point);
      }
      wave_at = env.now() + 20.0;
    }
    env.run_until(1800.0);
  });

  const auto& stats = platform.coordinator().stats();
  outcome.completed = stats.jobs_completed;
  outcome.recoveries = platform.coordinator().recovery_stats().recoveries;
  outcome.crashes_fired = platform.fault_injector().total_fired();
  outcome.wal_replayed = platform.database().wal().stats().replayed;
  for (const auto& [job_id, record] : platform.coordinator().archive()) {
    outcome.makespan_s = std::max(outcome.makespan_s, record.completed_at);
  }
  outcome.jobs_preserved =
      outcome.completed == outcome.submitted &&
      stats.jobs_submitted ==
          static_cast<int>(platform.coordinator().jobs().size() +
                           platform.coordinator().archive().size()) +
              stats.jobs_withdrawn;
  return outcome;
}

// ---------------------------------------------------------------------------
// 3. Region rejoin (anti-entropy pull)
// ---------------------------------------------------------------------------

/// Sim-seconds from restart until the rejoiner's directory holds every
/// region again; -1 when it never does.
double measure_rejoin(int regions) {
  sim::Environment env(23);
  FederationConfig config;
  for (int i = 0; i < regions; ++i) {
    const std::string name = "r" + std::to_string(i);
    federation::RegionPolicy policy;
    policy.digest_interval = 5.0;
    config.regions.push_back(RegionConfig{name, crash_campus(1), policy});
  }
  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(40.0);
  if (fed.gateway("r0").directory().entries().size() !=
      static_cast<std::size_t>(regions)) {
    return -1;  // never converged in the first place
  }
  const double downtime = 1.0;
  fed.crash_region_control_plane("r0", downtime);
  const double recovered_at = env.now() + downtime;
  const double deadline = recovered_at + 120.0;
  while (fed.gateway("r0").directory().entries().size() !=
         static_cast<std::size_t>(regions)) {
    if (env.now() >= deadline) return -1;
    env.run_until(env.now() + 0.01);
  }
  return env.now() - recovered_at;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void write_json(const std::string& path, const std::string& mode,
                const std::vector<SweepPoint>& sweep,
                const CampaignOutcome& baseline,
                const std::vector<CampaignOutcome>& campaigns,
                double rejoin_s) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"recovery\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"wal_replay_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << "    {\"wal_depth\": " << sweep[i].depth
        << ", \"replayed\": " << sweep[i].replayed
        << ", \"recover_us\": " << sweep[i].recover_us
        << ", \"us_per_record\": " << sweep[i].us_per_record << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  auto write_campaign = [&out](const CampaignOutcome& c) {
    out << "{\"point\": \"" << (c.point.empty() ? "none" : c.point) << "\""
        << ", \"submitted\": " << c.submitted
        << ", \"completed\": " << c.completed
        << ", \"recoveries\": " << c.recoveries
        << ", \"crashes_fired\": " << c.crashes_fired
        << ", \"wal_replayed\": " << c.wal_replayed
        << ", \"makespan_s\": " << c.makespan_s
        << ", \"wall_s\": " << c.wall_s
        << ", \"jobs_preserved\": " << (c.jobs_preserved ? "true" : "false")
        << "}";
  };
  out << "  \"crash_free_baseline\": ";
  write_campaign(baseline);
  out << ",\n";
  out << "  \"crash_campaigns\": [\n";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    out << "    ";
    write_campaign(campaigns[i]);
    out << (i + 1 < campaigns.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"region_rejoin\": {\"anti_entropy_pull_s\": " << rejoin_s
      << "}\n";
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
  std::string out_path = "BENCH_recovery.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  banner("Crash recovery — WAL replay cost, crash-point campaigns, region "
         "rejoin",
         "robustness of the GPUnion control plane (crash-consistent ledger)");

  // 1. WAL replay sweep.
  const std::vector<std::size_t> depths =
      smoke ? std::vector<std::size_t>{0, 256, 1024}
            : std::vector<std::size_t>{0, 256, 1024, 4096, 16384, 65536};
  std::vector<SweepPoint> sweep;
  std::printf("\nWAL replay sweep (crash_and_recover wall time vs. log "
              "depth):\n\n");
  std::printf("%10s %10s %12s %14s\n", "depth", "replayed", "recover-us",
              "us/record");
  row_divider(50);
  bool sweep_ok = true;
  for (const std::size_t depth : depths) {
    sweep.push_back(sweep_at_depth(depth));
    const auto& point = sweep.back();
    std::printf("%10zu %10zu %12.1f %14.3f\n", point.depth, point.replayed,
                point.recover_us, point.us_per_record);
    if (point.replayed != depth) sweep_ok = false;
  }

  // 2. Campus crash campaigns vs. crash-free baseline.
  const int nodes = smoke ? 4 : 16;
  const int jobs = smoke ? 10 : 40;
  const std::uint64_t seed = 42;
  const CampaignOutcome baseline = run_campaign(nodes, jobs, "", seed);
  std::vector<CampaignOutcome> campaigns;
  for (const auto point :
       {sim::kCrashPreAck, sim::kCrashPostAckPreFlush,
        sim::kCrashMidGroupCommit}) {
    campaigns.push_back(run_campaign(nodes, jobs, std::string(point), seed));
  }
  std::printf("\nCrash campaigns (%d jobs, %d nodes, 3 crashes @1.5 s "
              "downtime each):\n\n",
              jobs, nodes);
  std::printf("%26s %7s %9s %9s %9s %11s %10s\n", "point", "jobs",
              "complete", "recover", "replayed", "makespan-s", "preserved");
  row_divider(88);
  auto print_campaign = [](const CampaignOutcome& c) {
    std::printf("%26s %7d %9d %9d %9llu %11.1f %10s\n",
                c.point.empty() ? "none (baseline)" : c.point.c_str(),
                c.submitted, c.completed, c.recoveries,
                static_cast<unsigned long long>(c.wal_replayed), c.makespan_s,
                c.jobs_preserved ? "yes" : "NO");
  };
  print_campaign(baseline);
  bool campaigns_ok = baseline.jobs_preserved;
  // Each dirty crash point (every one but pre-ack) must replay acked work.
  bool dirty_points_replay = true;
  double worst_penalty = 0;
  for (const auto& campaign : campaigns) {
    print_campaign(campaign);
    campaigns_ok = campaigns_ok && campaign.jobs_preserved &&
                   campaign.recoveries == 3;
    if (campaign.point != sim::kCrashPreAck && campaign.wal_replayed == 0) {
      dirty_points_replay = false;
    }
    worst_penalty =
        std::max(worst_penalty, campaign.makespan_s - baseline.makespan_s);
  }
  std::printf("\nMakespan penalty of 3 control-plane crashes: worst %.1f "
              "sim-s over a %.1f s crash-free makespan.\n",
              worst_penalty, baseline.makespan_s);

  // 3. Region rejoin.
  const int regions = smoke ? 3 : 5;
  const double rejoin_s = measure_rejoin(regions);
  std::printf("\nRegion rejoin (%d regions, directory back to full view "
              "after restart):\n  anti-entropy pull: %.2f s\n",
              regions, rejoin_s);

  write_json(out_path, smoke ? "smoke" : "full", sweep, baseline, campaigns,
             rejoin_s);

  // The pull restores the view in about one WAN round trip; a second is
  // the bound the federation recovery test asserts.
  const bool pass = sweep_ok && campaigns_ok && dirty_points_replay &&
                    rejoin_s > 0 && rejoin_s < 1.0;
  std::printf("\n%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
