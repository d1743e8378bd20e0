// Request-plane traffic bench: million-user open-loop admission.
//
// The ROADMAP's north star is "idle campus GPUs serving millions of
// users"; this bench measures whether the tenant-facing request plane
// (src/api/) holds up at that population.  Three experiments:
//
//   1. admission at scale — an open-loop Zipf-distributed stream from a
//      1M-tenant population into a standalone ApiServer (counting sink in
//      place of the scheduler core, so the request plane alone is on the
//      clock): p50/p99/p999 modeled admission latency (accept -> DRF
//      dispatch) and rejection rates.  The p999 must stay under 10 modeled
//      ms — the threshold drain keeps burst latency batch-bound instead of
//      interval-bound.
//   2. end-to-end campus — the same traffic shape (scaled down) through a
//      real Platform: API -> coordinator -> agents, with completions.
//   3. backpressure ladder — offered load at 1x/2x/4x of the admission
//      rate: rejections must rise with load while the API-side queue depth
//      stays bounded (the kOverloaded + retry-after contract, as opposed
//      to unbounded buffering).
//
// Emits machine-readable BENCH_api.json (override with --out); `--smoke`
// shrinks everything for CI.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "api/api_server.h"
#include "bench/harness_include.h"

namespace gpunion::bench {
namespace {

/// Zipf(1) rank from a 1..n population via the log-uniform approximation:
/// rank = exp(u ln n) has pdf proportional to 1/rank.
std::uint64_t zipf_rank(util::Rng& rng, std::uint64_t n) {
  const double u = rng.uniform(0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::exp(u * std::log(static_cast<double>(n))));
  return std::min<std::uint64_t>(n, std::max<std::uint64_t>(1, rank));
}

workload::JobSpec tiny_job(const std::string& id, util::SimTime now) {
  auto job = workload::make_training_job(id, workload::cnn_small(),
                                         /*hours=*/0.02, "bench", now);
  job.checkpoint_interval = 120.0;
  return job;
}

struct AdmissionResult {
  std::uint64_t population = 0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t distinct_tenants = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
  double reject_rate = 0;
  std::uint64_t group_commits = 0;
  double wall_s = 0;
};

/// Experiment 1: the request plane alone, 1M-tenant Zipf stream, open loop.
AdmissionResult run_admission_at_scale(std::uint64_t population,
                                       double arrival_rate,
                                       double horizon_s) {
  sim::Environment env(1);
  api::ApiConfig config;
  config.enabled = true;
  config.admission_rate = arrival_rate * 1.25;  // headroom: reject tail only
  config.admission_burst = arrival_rate * 0.25;
  config.drain_interval = 0.005;
  config.drain_batch = 128;
  config.default_quota.max_in_flight = 1 << 20;  // sink mode: no core limit
  config.default_quota.max_queued = 64;
  api::ApiServer api(env, config);
  std::uint64_t sunk = 0;
  api.set_dispatch([&sunk](workload::JobSpec, double, obs::TraceContext) {
    ++sunk;
    return util::Status();
  });
  api.set_capacity({1e18, 1e18});
  api.start();

  util::Rng rng(7);
  std::set<std::uint64_t> distinct;
  std::uint64_t offered = 0;
  std::uint64_t next_id = 0;
  // Open loop: every 10 modeled ms a Poisson burst arrives regardless of
  // how the plane is doing (nobody waits for replies).
  const double tick = 0.01;
  std::function<void()> pump = [&] {
    const int arrivals = rng.poisson(arrival_rate * tick);
    for (int i = 0; i < arrivals; ++i) {
      const std::uint64_t rank = zipf_rank(rng, population);
      distinct.insert(rank);
      ++offered;
      (void)api.submit("u" + std::to_string(rank),
                       tiny_job("req-" + std::to_string(next_id++),
                                env.now()));
    }
    if (env.now() + tick < horizon_s) {
      env.schedule_at(env.now() + tick, pump);
    }
  };
  env.schedule_at(tick, pump);

  AdmissionResult result;
  result.wall_s = wall_seconds([&] {
    env.run_until(horizon_s + 1.0);
    api.drain_to_quiescence();
  });

  const api::ApiStats& stats = api.stats();
  const util::SampleSet& latency = api.admission_latency();
  result.population = population;
  result.offered = offered;
  result.accepted = stats.totals.accepted;
  result.dispatched = stats.totals.dispatched;
  result.rejected_overloaded = stats.totals.rejected_overloaded;
  result.distinct_tenants = distinct.size();
  result.p50_ms = latency.percentile(50) * 1e3;
  result.p99_ms = latency.percentile(99) * 1e3;
  result.p999_ms = latency.percentile(99.9) * 1e3;
  result.max_ms = latency.max() * 1e3;
  result.reject_rate =
      offered ? static_cast<double>(stats.totals.rejected_overloaded) /
                    static_cast<double>(offered)
              : 0.0;
  result.group_commits = stats.group_commits;
  std::printf("  %9llu tenants  %7llu offered  %7llu dispatched  "
              "p50 %.2f ms  p99 %.2f ms  p999 %.2f ms  reject %.1f%%\n",
              static_cast<unsigned long long>(population),
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(result.dispatched),
              result.p50_ms, result.p99_ms, result.p999_ms,
              result.reject_rate * 100.0);
  return result;
}

struct CampusResult {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double p99_admission_ms = 0;
  double wall_s = 0;
};

/// Experiment 2: the same traffic shape through a real campus end to end.
CampusResult run_campus_end_to_end(int nodes, double arrival_rate,
                                   double horizon_s) {
  sim::Environment env(2);
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090("bench-" + std::to_string(i)), "bench"});
  }
  config.storage.push_back({"nas-bench", 256ULL << 30});
  config.agent_defaults.telemetry_interval = 600.0;
  config.scrape_interval = 600.0;
  config.api.enabled = true;
  config.api.admission_rate = std::max(10.0, arrival_rate * 1.25);
  config.api.admission_burst = std::max(10.0, arrival_rate * 0.25);
  config.api.drain_interval = 0.05;
  config.api.drain_batch = 64;
  config.api.default_quota.max_in_flight = 8;
  config.api.default_quota.max_queued = 32;
  Platform platform(env, config);
  platform.start();
  env.run_until(5.0);

  util::Rng rng(3);
  std::uint64_t offered = 0;
  std::uint64_t next_id = 0;
  const double tick = 0.05;
  std::function<void()> pump = [&] {
    const int arrivals = rng.poisson(arrival_rate * tick);
    for (int i = 0; i < arrivals; ++i) {
      ++offered;
      (void)platform.api().submit(
          "u" + std::to_string(zipf_rank(rng, 1000)),
          tiny_job("job-" + std::to_string(next_id++), env.now()));
    }
    if (env.now() + tick < 5.0 + horizon_s) {
      env.schedule_at(env.now() + tick, pump);
    }
  };
  env.schedule_at(5.0 + tick, pump);

  CampusResult result;
  result.wall_s = wall_seconds([&] {
    env.run_until(5.0 + horizon_s + 600.0);  // let dispatched work finish
    platform.api().drain_to_quiescence();
  });
  const api::ApiStats& stats = platform.api().stats();
  result.offered = offered;
  result.accepted = stats.totals.accepted;
  result.dispatched = stats.totals.dispatched;
  result.completed = stats.totals.completed;
  result.rejected =
      stats.totals.rejected_overloaded + stats.totals.rejected_quota;
  result.p99_admission_ms =
      platform.api().admission_latency().percentile(99) * 1e3;
  std::printf("  %d nodes  %llu offered  %llu dispatched  %llu completed  "
              "p99 admission %.1f ms\n",
              nodes, static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(result.dispatched),
              static_cast<unsigned long long>(result.completed),
              result.p99_admission_ms);
  return result;
}

struct OverloadResult {
  double multiplier = 1.0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overloaded = 0;
  double reject_rate = 0;
  std::size_t max_total_queued = 0;
  std::size_t max_tenant_queued = 0;
  double mean_retry_after_s = 0;
};

/// Experiment 3: offered load at `multiplier` x the admission rate.  The
/// contract under overload: rejections rise, queue depth stays bounded.
OverloadResult run_overload(double multiplier, double base_rate,
                            double horizon_s) {
  sim::Environment env(4);
  api::ApiConfig config;
  config.enabled = true;
  config.admission_rate = base_rate;
  config.admission_burst = base_rate * 0.25;
  config.drain_interval = 0.005;
  config.drain_batch = 128;
  config.default_quota.max_in_flight = 1 << 20;
  config.default_quota.max_queued = 64;
  api::ApiServer api(env, config);
  api.set_dispatch([](workload::JobSpec, double, obs::TraceContext) {
    return util::Status();
  });
  api.set_capacity({1e18, 1e18});
  api.start();

  util::Rng rng(9);
  OverloadResult result;
  result.multiplier = multiplier;
  util::RunningStats retry_after;
  std::uint64_t next_id = 0;
  const double tick = 0.01;
  std::function<void()> pump = [&] {
    const int arrivals = rng.poisson(base_rate * multiplier * tick);
    for (int i = 0; i < arrivals; ++i) {
      ++result.offered;
      auto outcome = api.submit(
          "u" + std::to_string(zipf_rank(rng, 100000)),
          tiny_job("o" + std::to_string(next_id++), env.now()));
      if (outcome.outcome == api::AdmitOutcome::kOverloaded) {
        retry_after.add(outcome.retry_after);
      }
    }
    if (env.now() + tick < horizon_s) {
      env.schedule_at(env.now() + tick, pump);
    }
  };
  env.schedule_at(tick, pump);
  env.run_until(horizon_s + 1.0);
  api.drain_to_quiescence();

  const api::ApiStats& stats = api.stats();
  result.accepted = stats.totals.accepted;
  result.rejected_overloaded = stats.totals.rejected_overloaded;
  result.reject_rate =
      result.offered ? static_cast<double>(result.rejected_overloaded) /
                           static_cast<double>(result.offered)
                     : 0.0;
  result.max_total_queued = stats.max_total_queued;
  result.max_tenant_queued = stats.max_tenant_queued;
  result.mean_retry_after_s = retry_after.mean();
  std::printf("  %.0fx load  %7llu offered  reject %.1f%%  max queue %zu  "
              "mean retry-after %.3f s\n",
              multiplier, static_cast<unsigned long long>(result.offered),
              result.reject_rate * 100.0, result.max_total_queued,
              result.mean_retry_after_s);
  return result;
}

void write_json(const std::string& path, const std::string& mode,
                const AdmissionResult& scale, const CampusResult& campus,
                const std::vector<OverloadResult>& ladder) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"api_traffic\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"admission_at_scale\": {\n";
  out << "    \"tenant_population\": " << scale.population << ",\n";
  out << "    \"offered\": " << scale.offered << ",\n";
  out << "    \"accepted\": " << scale.accepted << ",\n";
  out << "    \"dispatched\": " << scale.dispatched << ",\n";
  out << "    \"distinct_tenants\": " << scale.distinct_tenants << ",\n";
  out << "    \"admission_latency_p50_ms\": " << scale.p50_ms << ",\n";
  out << "    \"admission_latency_p99_ms\": " << scale.p99_ms << ",\n";
  out << "    \"admission_latency_p999_ms\": " << scale.p999_ms << ",\n";
  out << "    \"admission_latency_max_ms\": " << scale.max_ms << ",\n";
  out << "    \"reject_rate\": " << scale.reject_rate << ",\n";
  out << "    \"group_commits\": " << scale.group_commits << ",\n";
  out << "    \"wall_s\": " << scale.wall_s << "\n";
  out << "  },\n";
  out << "  \"campus_end_to_end\": {\n";
  out << "    \"offered\": " << campus.offered << ",\n";
  out << "    \"accepted\": " << campus.accepted << ",\n";
  out << "    \"dispatched\": " << campus.dispatched << ",\n";
  out << "    \"completed\": " << campus.completed << ",\n";
  out << "    \"rejected\": " << campus.rejected << ",\n";
  out << "    \"admission_latency_p99_ms\": " << campus.p99_admission_ms
      << ",\n";
  out << "    \"wall_s\": " << campus.wall_s << "\n";
  out << "  },\n";
  out << "  \"overload_ladder\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i];
    out << "    {\"multiplier\": " << r.multiplier
        << ", \"offered\": " << r.offered
        << ", \"accepted\": " << r.accepted
        << ", \"rejected_overloaded\": " << r.rejected_overloaded
        << ", \"reject_rate\": " << r.reject_rate
        << ", \"max_total_queued\": " << r.max_total_queued
        << ", \"max_tenant_queued\": " << r.max_tenant_queued
        << ", \"mean_retry_after_s\": " << r.mean_retry_after_s << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace gpunion::bench

int main(int argc, char** argv) {
  using namespace gpunion;
  util::Logger::instance().set_level(util::LogLevel::kError);
  bool smoke = false;
  std::string out_path = "BENCH_api.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::banner("Request plane — million-user admission traffic",
                "north star: idle campus GPUs serving millions of users");

  std::printf("\n[1] open-loop Zipf admission, standalone request plane\n");
  const auto scale = bench::run_admission_at_scale(
      smoke ? 10'000 : 1'000'000, smoke ? 1000.0 : 4000.0,
      smoke ? 10.0 : 60.0);

  // Arrival rate sized to the campus: each tiny job holds one GPU for
  // ~72 modeled seconds, so nodes/72 is the saturation rate.
  std::printf("\n[2] end-to-end campus (API -> coordinator -> agents)\n");
  const auto campus = bench::run_campus_end_to_end(
      smoke ? 8 : 24, smoke ? 0.08 : 0.25, smoke ? 600.0 : 1200.0);

  std::printf("\n[3] backpressure ladder (offered / admission capacity)\n");
  std::vector<bench::OverloadResult> ladder;
  const double base_rate = smoke ? 500.0 : 2000.0;
  const double horizon = smoke ? 10.0 : 30.0;
  for (double multiplier : {1.0, 2.0, 4.0}) {
    ladder.push_back(bench::run_overload(multiplier, base_rate, horizon));
  }

  bench::write_json(out_path, smoke ? "smoke" : "full", scale, campus,
                    ladder);
  return 0;
}
