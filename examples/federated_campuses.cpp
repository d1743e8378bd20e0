// Federated campuses walkthrough: two autonomous GPUnion deployments
// sharing load under per-region admission policies.
//
// "hilltop" is a small, oversubscribed campus; "riverside" is a larger one
// with headroom but a cautious federation policy: it admits at most two
// remote jobs at a time and always keeps one GPU free for its own people.
// The walkthrough shows, against the live federated platform:
//   1. gossip        — each gateway's directory replica holds both
//                      regions' capacity digests (no central broker)
//   2. overflow      — hilltop's queue spills over and riverside admits
//                      remote jobs, but only up to its admission cap
//   3. autonomy      — the refusals hilltop absorbs (jobs return home and
//                      retry later) when riverside's cap is hit
//   4. outage        — hilltop goes completely dark; its checkpointed
//                      training migrates cross-campus and finishes at
//                      riverside
#include <cstdio>

#include "gpunion/federated_platform.h"
#include "util/logging.h"
#include "workload/profiles.h"

namespace {

using namespace gpunion;

CampusConfig campus(const std::string& name, int workstations) {
  CampusConfig config;
  for (int i = 0; i < workstations; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090(name + "-ws-" + std::to_string(i)),
         "lab-" + name});
  }
  config.storage.push_back({"nas-" + name, 64ULL << 40});
  return config;
}

void show(FederatedPlatform& fed, const char* moment) {
  std::printf("\n== %s (t=%.0f s)\n", moment, fed.env().now());
  for (const auto& name : fed.region_names()) {
    const auto& gw = fed.gateway(name).stats();
    const auto operational = fed.region(name).coordinator().operational_stats();
    std::printf(
        "   %-10s running=%-3d pending=%-3d completed=%-3d | out: "
        "admitted=%llu returned=%llu | in: admitted=%llu refused=%llu "
        "migrations=%llu\n",
        name.c_str(), operational.running, operational.pending,
        operational.completed,
        static_cast<unsigned long long>(gw.forwards_admitted),
        static_cast<unsigned long long>(gw.forwards_returned),
        static_cast<unsigned long long>(gw.remote_admitted),
        static_cast<unsigned long long>(gw.remote_refused_cap +
                                        gw.remote_refused_capacity +
                                        gw.remote_refused_policy),
        static_cast<unsigned long long>(gw.cross_campus_migrations_in));
  }
}

}  // namespace

int main() {
  util::Logger::instance().set_level(util::LogLevel::kError);

  sim::Environment env(42);
  FederationConfig config;

  // Hilltop: 2 workstations, eager to push overflow out.
  federation::RegionPolicy hilltop_policy;
  hilltop_policy.digest_interval = 5.0;
  hilltop_policy.forward_after = 20.0;
  hilltop_policy.forward_retry_backoff = 40.0;
  config.regions.push_back(
      {"hilltop", campus("hilltop", 2), hilltop_policy});

  // Riverside: 6 workstations, autonomous about what it takes in — at most
  // 2 remote guests at a time, and one GPU always reserved for locals.
  federation::RegionPolicy riverside_policy;
  riverside_policy.digest_interval = 5.0;
  riverside_policy.max_remote_jobs = 2;
  riverside_policy.min_free_gpus_reserve = 1;
  config.regions.push_back(
      {"riverside", campus("riverside", 6), riverside_policy});

  FederatedPlatform fed(env, config);
  fed.start();
  env.run_until(5.0);
  // Images are pre-staged on every node; the walkthrough is about the
  // federation, not cold image distribution.
  for (const auto& name : fed.region_names()) {
    auto& platform = fed.region(name);
    for (const auto& machine_id : platform.machine_ids()) {
      platform.agent(machine_id)->runtime().mark_image_cached(
          "pytorch:2.3-cuda12.1");
    }
  }

  std::printf("Two autonomous campuses federated peer-to-peer:\n"
              "  hilltop   %d GPUs (oversubscribed below)\n"
              "  riverside %d GPUs (cap: 2 remote jobs, 1 GPU reserved)\n",
              fed.region("hilltop").total_gpus(),
              fed.region("riverside").total_gpus());

  // 1. Gossip.
  env.run_until(12.0);
  std::printf("\n== capacity gossip in hilltop's directory replica\n");
  for (const auto& [name, entry] :
       fed.gateway("hilltop").directory().entries()) {
    std::printf("   %-10s version=%llu age=%.1fs free-gpus=%d nodes=%d\n",
                name.c_str(), static_cast<unsigned long long>(entry.version),
                env.now() - entry.generated_at, entry.capacity.free_gpus,
                entry.capacity.nodes);
  }

  // 2. Overflow: six 3-minute training jobs into hilltop's two GPUs.
  for (int i = 0; i < 6; ++i) {
    auto job = workload::make_training_job(
        "hill-train-" + std::to_string(i), workload::cnn_small(),
        /*hours=*/0.05, "lab-hilltop", env.now());
    job.checkpoint_interval = 30.0;
    (void)fed.region("hilltop").coordinator().submit(std::move(job));
  }
  env.run_until(90.0);
  show(fed, "overflow: 6 jobs vs 2 local GPUs");
  std::printf("   riverside admitted up to its cap; the rest were refused\n"
              "   (\"admission-cap\") and returned to hilltop's queue.\n");

  // 3. Autonomy: the cap drains as remote guests finish, so returned jobs
  // get admitted on retry — nothing starves, nobody's autonomy is violated.
  env.run_until(600.0);
  show(fed, "cap drained; every overflow job finished somewhere");

  // 4. Outage: hilltop goes dark mid-training.
  for (int i = 0; i < 2; ++i) {
    auto job = workload::make_training_job(
        "hill-long-" + std::to_string(i), workload::cnn_small(),
        /*hours=*/0.2, "lab-hilltop", env.now());
    job.checkpoint_interval = 30.0;
    (void)fed.region("hilltop").coordinator().submit(std::move(job));
  }
  env.run_until(700.0);  // both long jobs running, checkpoints on the NAS
  fed.inject_region_outage("hilltop", /*downtime=*/3600.0);
  env.run_until(1600.0);
  show(fed, "hilltop outage: checkpointed training migrated cross-campus");

  const auto stats = fed.stats();
  std::printf(
      "\nFederation totals: %llu forwards admitted, %llu refused, %llu "
      "cross-campus\nmigrations (%.2f GB of checkpoints over the WAN), %llu "
      "placement queries\nanswered from local replicas, %llu gossip "
      "pushes.\n",
      static_cast<unsigned long long>(stats.forwards_admitted),
      static_cast<unsigned long long>(stats.remote_refused),
      static_cast<unsigned long long>(stats.cross_campus_migrations),
      static_cast<double>(stats.checkpoint_bytes_shipped) / 1e9,
      static_cast<unsigned long long>(stats.local_rankings),
      static_cast<unsigned long long>(stats.gossips_sent));
  return 0;
}
