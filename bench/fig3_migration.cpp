// Figure 3: Migration performance under different interruption scenarios.
//
// Paper (§4): 20 deep-learning training jobs (CNN + transformer) across 2
// volunteer provider nodes over one week; interruption frequency varied
// from 0.5 to 3.2 events/day/node over three scenario classes:
//   - scheduled departure:    94% migrated within the specified time,
//                             minimal data loss
//   - emergency departure:    work loss equivalent to the checkpoint
//                             interval
//   - temporary unavailability: 67% of displaced workloads migrated back
//                             to their original node on provider return
#include <cstdio>

#include "bench/harness_include.h"

namespace gpunion::bench {
namespace {

/// Two volunteer multi-GPU providers plus four workstations as refuge
/// capacity (the paper's volunteers sat inside the larger campus).
/// Least-loaded placement concentrates the jobs on the big volunteers.
void shrink_fleet(CampusConfig& config) {
  config.nodes.clear();
  config.nodes.push_back({hw::server_8x4090("srv-mlsys-0"), "mlsys"});
  config.nodes.push_back({hw::server_4xa6000("srv-nlp-big"), "nlp"});
  for (int i = 0; i < 10; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090("ws-refuge-" + std::to_string(i)), "campus"});
  }
  config.coordinator.strategy = std::string(sched::kLeastLoaded);
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 600.0;
  config.scrape_interval = 600.0;
}

struct ScenarioResult {
  double success_rate = 0;
  double mean_downtime_s = 0;
  double p95_downtime_s = 0;
  double mean_lost_work_min = 0;
  int interruptions = 0;
};

struct Fig3Result {
  std::map<agent::DepartureKind, ScenarioResult> by_cause;
  /// Training jobs displaced by a temporary departure, and how many of them
  /// later resumed on their origin node.
  int displaced_by_temporary = 0;
  int migrate_back_successes = 0;
  int jobs_completed = 0;
  int total_interruptions = 0;

  double migrate_back_rate() const {
    return displaced_by_temporary == 0
               ? 0.0
               : static_cast<double>(migrate_back_successes) /
                     displaced_by_temporary;
  }
};

Fig3Result run_one(double events_per_day, std::uint64_t seed) {
  Scenario scenario =
      make_scenario(baseline::Preset::kGpunion, seed, shrink_fleet);
  auto& env = *scenario.env;
  const util::SimTime horizon = util::days(7);

  // The two "volunteer" providers under churn: the big training boxes.
  const std::vector<std::string> volunteers = {
      Platform::machine_id_for("srv-mlsys-0"),
      Platform::machine_id_for("srv-nlp-big")};

  // 20 DL jobs, CNN + transformer mix, sized so the volunteers stay loaded
  // all week (multi-day training runs, as in the paper's experiment).
  Client mlsys_client(*scenario.platform, "mlsys");
  util::Rng job_rng(seed ^ 0xabcd);
  for (int i = 0; i < 14; ++i) {
    const auto& profile = i % 2 == 0 ? workload::cnn_large()
                                     : workload::transformer_small();
    const double hours = job_rng.uniform(60.0, 130.0);
    const double at = job_rng.uniform(0.0, util::days(1));
    env.schedule_at(at, [&mlsys_client, profile, hours] {
      SubmitOptions options;
      options.checkpoint_interval = util::minutes(10);
      (void)mlsys_client.submit_training(profile, hours, options);
    });
  }

  workload::InterruptionModel model;
  model.events_per_day = events_per_day;
  model.min_downtime = util::minutes(30);
  model.max_downtime = util::hours(4);
  model.temporary_downtime = util::minutes(25);
  inject_churn(scenario,
               workload::generate_interruptions(volunteers, horizon, model,
                                                util::Rng(seed + 7)));
  env.run_until(horizon);

  Fig3Result result;
  const auto& tracker = scenario.coordinator().migrations();
  const util::Duration window =
      scenario.coordinator().config().migration_success_window;
  for (auto cause : {agent::DepartureKind::kScheduled,
                     agent::DepartureKind::kEmergency,
                     agent::DepartureKind::kTemporary}) {
    ScenarioResult& entry = result.by_cause[cause];
    entry.success_rate = tracker.success_rate(cause, window);
    const auto downtimes = tracker.downtimes(cause);
    entry.mean_downtime_s = downtimes.median();
    entry.p95_downtime_s = downtimes.percentile(95);
    entry.mean_lost_work_min = tracker.lost_work_minutes(cause).mean();
    entry.interruptions =
        static_cast<int>(tracker.by_cause(cause).size());
  }
  const auto& stats = scenario.coordinator().stats();
  result.displaced_by_temporary = stats.displaced_by_temporary;
  result.migrate_back_successes = stats.migrate_back_successes;
  result.jobs_completed = stats.training_completed;
  result.total_interruptions =
      static_cast<int>(tracker.interruption_count());
  return result;
}

/// Aggregates several seeded replications (the paper averaged over a week
/// of live churn; we average over independent weeks).
Fig3Result run(double events_per_day, std::uint64_t base_seed,
               int replications = 6) {
  Fig3Result total;
  for (int r = 0; r < replications; ++r) {
    const Fig3Result one =
        run_one(events_per_day, base_seed + static_cast<std::uint64_t>(r));
    for (const auto& [cause, entry] : one.by_cause) {
      ScenarioResult& acc = total.by_cause[cause];
      // Weight rates by event counts so empty replications don't skew.
      acc.success_rate = (acc.success_rate * acc.interruptions +
                          entry.success_rate * entry.interruptions);
      acc.mean_downtime_s = (acc.mean_downtime_s * acc.interruptions +
                             entry.mean_downtime_s * entry.interruptions);
      acc.mean_lost_work_min =
          (acc.mean_lost_work_min * acc.interruptions +
           entry.mean_lost_work_min * entry.interruptions);
      acc.interruptions += entry.interruptions;
      if (acc.interruptions > 0) {
        acc.success_rate /= acc.interruptions;
        acc.mean_downtime_s /= acc.interruptions;
        acc.mean_lost_work_min /= acc.interruptions;
      }
    }
    // Pooled over replications: every displaced job counts once, so a
    // replication whose displaced jobs all stayed away weighs in too.
    total.displaced_by_temporary += one.displaced_by_temporary;
    total.migrate_back_successes += one.migrate_back_successes;
    total.jobs_completed += one.jobs_completed;
    total.total_interruptions += one.total_interruptions;
  }
  return total;
}

const char* cause_label(agent::DepartureKind k) {
  switch (k) {
    case agent::DepartureKind::kScheduled: return "scheduled departure";
    case agent::DepartureKind::kEmergency: return "emergency departure";
    case agent::DepartureKind::kTemporary: return "temporary unavail.";
    default: return "?";
  }
}

}  // namespace
}  // namespace gpunion::bench

int main() {
  using namespace gpunion;
  using namespace gpunion::bench;
  util::Logger::instance().set_level(util::LogLevel::kError);

  banner("Figure 3 — Migration performance under interruption scenarios",
         "\"94% of workloads successfully migrated\"; \"work loss equivalent "
         "to the checkpoint interval\"; \"67% ... migrated back\" (§4)");

  std::printf("\nSetup: 14 multi-day DL training jobs (CNN large + "
              "transformer small) on 2 volunteer\nproviders (8x4090 + "
              "4xA6000) with 10 refuge workstations; 6 replicated weeks\n"
              "per rate; checkpoint interval 10 min, migration-success "
              "window 10 min.\n");

  const std::vector<double> rates = {0.5, 1.0, 2.0, 3.2};
  for (double rate : rates) {
    const auto result = run(rate, 9000 + static_cast<std::uint64_t>(rate * 10));
    std::printf("\nInterruption rate: %.1f events/day/node "
                "(6 weeks aggregated: %d interruptions, %d/84 jobs done)\n",
                rate, result.total_interruptions, result.jobs_completed);
    row_divider();
    std::printf("%-22s %8s %12s %12s %12s\n", "scenario", "events",
                "success", "downtime", "lost work");
    row_divider();
    for (const auto& [cause, entry] : result.by_cause) {
      std::printf("%-22s %8d %11.0f%% %10.0f s %9.1f min\n",
                  cause_label(cause), entry.interruptions,
                  entry.success_rate * 100.0, entry.mean_downtime_s,
                  entry.mean_lost_work_min);
    }
    row_divider();
    std::printf("migrate-back after temporary unavailability: %.0f%% "
                "(%d of %d displaced; paper: 67%%)\n",
                result.migrate_back_rate() * 100.0,
                result.migrate_back_successes, result.displaced_by_temporary);
  }

  std::printf("\nPaper anchors: scheduled ~94%% success / minimal loss; "
              "emergency loss ~ checkpoint interval (expected ~5 min mean "
              "for a 10-min interval); temporary ~67%% migrate-back.\n\n");
  return 0;
}
