// GPUnion benchmark: runs one workload for about --seconds of host time
// and prints every metric by name and unit, then one JSON result line.
//
//   perfbench --workload campus --seed 1 --seconds 20 --trace 0 [--out DIR]
//
// A run simulates an ensemble of round(S / instance_seconds) instances.
// --trace 0 reports the end-to-end metrics of untraced instances.
// --trace 1 runs each instance twice, untraced and traced, and reports the
// per-layer metrics and the tracing overhead; it writes the last traced
// instance's spans as Chrome trace-event JSON (Perfetto opens it).
// A broken output identity, or a traced instance whose simulated outcomes
// differ from its untraced twin, exits with status 3 and prints no result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "obs/export.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_result(const Metrics& metrics, std::uint64_t attempted,
                        std::uint64_t failed) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

void print_metrics(const Metrics& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-26s %20.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Each per-layer metric averaged over the traced instances.
Metrics mean_layers(const std::vector<InstanceResult>& results) {
  Metrics out = results.front().layers;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& result : results) values.push_back(result.layers[i].value);
    out[i].value = mean(values);
  }
  return out;
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

/// Sub-seed of instance `i` of a run seeded `seed`.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  return gpunion::util::Rng(seed).fork("instance." + std::to_string(i))
      .next_u64();
}

bool report_errors(const InstanceResult& inst) {
  for (const auto& error : inst.errors) {
    std::fprintf(stderr, "output check failed: %s\n", error.c_str());
  }
  return !inst.errors.empty();
}

int run(const Args& args) {
  const auto workload = make_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // A traced run simulates each instance twice, untraced and traced.
  const std::size_t instances = static_cast<std::size_t>(std::max(
      args.trace ? 1.0 : 2.0,
      std::round(args.seconds / workload->instance_seconds() /
                 (args.trace ? 2.0 : 1.0))));
  const double origin = wall_now();
  std::vector<InstanceResult> untraced, traced;
  std::unique_ptr<Probe> probe;
  std::string digest_text;
  for (std::size_t i = 0; i < instances; ++i) {
    const std::uint64_t seed = instance_seed(args.seed, i);
    // Traced twins alternate running first, so warm caches favour neither.
    const bool traced_first = args.trace && i % 2 == 1;
    for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
      if (args.trace && (pass == 0) == traced_first) {
        probe = std::make_unique<Probe>(origin);  // keeps the last spans
        traced.push_back(run_instance(*workload, seed, probe.get()));
        if (report_errors(traced.back())) return 3;
      } else {
        untraced.push_back(run_instance(*workload, seed, nullptr));
        if (report_errors(untraced.back())) return 3;
      }
    }
    if (args.trace &&
        traced.back().digest_text != untraced.back().digest_text) {
      std::fprintf(stderr,
                   "instance %zu simulated different outcomes when traced\n",
                   i);
      return 3;
    }
    char header[96];
    std::snprintf(header, sizeof(header), "instance %zu seed %llu\n", i,
                  static_cast<unsigned long long>(seed));
    digest_text += header + untraced.back().digest_text;
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> cpu, wall, setup;
  std::vector<const Outcome*> outcomes;
  for (const auto* results : {&untraced, &traced}) {
    for (const auto& result : *results) {
      attempted += static_cast<std::uint64_t>(result.outcome.ops);
      failed += result.failed_calls;
    }
  }
  for (const auto& result : untraced) {
    cpu.push_back(result.cpu_s);
    wall.push_back(result.wall_s);
    setup.push_back(result.setup_s);
    outcomes.push_back(&result.outcome);
  }
  std::string note;
  Metrics ungated;
  const Metrics outcome_metrics = pooled_outcomes(outcomes, &ungated, &note);
  const double cpu_s = mean(cpu);

  Metrics metrics;
  if (!args.trace) {
    metrics = {{"cpu_s", cpu_s, "host_cpu_s"},
               {"wall_s", mean(wall), "s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
    metrics.insert(metrics.end(), outcome_metrics.begin(),
                   outcome_metrics.end());
  } else {
    // Twins share a sub-seed, so their CPU ratio cancels what the seed
    // changes; the median keeps one disturbed twin from moving it.
    std::vector<double> traced_ratio;
    double heartbeats = 0, events = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      traced_ratio.push_back(traced[i].cpu_s / untraced[i].cpu_s);
      heartbeats += traced[i].heartbeats;
      events += traced[i].events;
    }
    const double n = static_cast<double>(traced.size());
    metrics = mean_layers(traced);
    metrics.push_back({"sched.us_per_heartbeat",
                       heartbeats == 0 ? 0.0 : cpu_s * 1e6 * n / heartbeats,
                       "cpu_us"});
    metrics.push_back({"sim.us_per_event",
                       events == 0 ? 0.0 : cpu_s * 1e6 * n / events, "cpu_us"});
    metrics.push_back({"trace.overhead", median(traced_ratio) - 1.0,
                       "ratio"});
    metrics.insert(metrics.end(), ungated.begin(), ungated.end());
    ungated.clear();
  }
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 3;
    }
  }

  std::printf("perfbench %s seed=%llu trace=%d: %zu untraced + %zu traced "
              "instances in %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, untraced.size(), traced.size(),
              wall_now() - origin);
  print_metrics(metrics);
  if (!ungated.empty()) {
    std::printf("  reported, not gated:\n");
    print_metrics(ungated);
  }
  std::printf("  %s\n", note.c_str());
  std::printf("digest %s seed=%llu fnv1a=%016llx\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(fnv1a(digest_text)));
  if (!args.out.empty()) {
    const std::filesystem::path dir(args.out);
    std::filesystem::create_directories(dir);
    const std::string stem =
        args.workload + "-seed" + std::to_string(args.seed);
    bool ok = write_file(dir / (stem + ".digest.txt"), digest_text);
    if (probe != nullptr) {
      const auto path = dir / (stem + ".trace.json");
      ok = ok && write_file(path,
                            gpunion::obs::perfetto_trace_json(probe->spans()));
      std::printf("trace %s (%zu spans)\n", path.c_str(),
                  probe->spans().size());
    }
    if (!ok) {
      std::fprintf(stderr, "cannot write to %s\n", args.out.c_str());
      return 2;
    }
  }
  std::printf("%s\n", json_result(metrics, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  gpunion::util::Logger::instance().set_level(gpunion::util::LogLevel::kError);
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  return perfbench::run(args);
}
