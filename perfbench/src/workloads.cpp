// The benchmark's four workloads.
//
// Each drives an unmodified campus through its public API in
// kDeterministic mode.  They differ in one property at a time, so each
// layer is heavy on one workload and idle on another:
//
//   campus   Fig. 2 demand on the paper's fleet: shallow queue, job
//            lifecycle and idle periodic work.
//   crunch   the same fleet and cadence, demand several times capacity:
//            the scheduling pass over a deep pending queue.
//   fleet    thousands of workstations below capacity: heartbeat fan-in.
//   tenants  an API-fronted, time-sliced campus above capacity: the
//            request plane and the seat tenancy paths.
#include <algorithm>
#include <cmath>
#include <memory>

#include "baseline/presets.h"
#include "bench.h"
#include "sched/strategies.h"
#include "workload/generator.h"
#include "workload/profiles.h"

namespace perfbench {

namespace gu = gpunion;
using gu::workload::GroupDemand;
using gu::workload::JobSpec;

namespace {

/// Machine ids of a config's nodes in id order (Platform::machine_ids()
/// order), computed without building the platform.
std::vector<std::string> machine_ids(const gu::CampusConfig& config) {
  std::vector<std::string> ids;
  for (const auto& node : config.nodes) {
    ids.push_back(gu::Platform::machine_id_for(node.spec.hostname));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void schedule_churn(Instance& inst, const Inputs& inputs) {
  for (const auto& event : inputs.churn) {
    inst.env().schedule_at(std::max(event.at, inst.env().now()),
                           [&inst, event] { inst.interrupt(event); });
  }
}

void schedule_submissions(Instance& inst, const Inputs& inputs) {
  for (const auto& submission : inputs.submissions) {
    inst.env().schedule_at(std::max(submission.at, inst.env().now()),
                           [&inst, job = submission.job]() mutable {
                             inst.submit(std::move(job));
                           });
  }
}

/// Users abandon training jobs that have waited `patience` without ever
/// getting a GPU (swept hourly, as bench/fig2_utilization.cpp does).
struct GiveUpSweep {
  Instance* inst;
  Duration patience;

  void operator()() const {
    std::vector<std::string> stale;
    for (const auto& [job_id, record] : inst->coordinator().jobs()) {
      if (record.phase == gu::sched::JobPhase::kPending &&
          record.first_dispatched_at < 0 &&
          inst->env().now() - record.submitted_at > patience) {
        stale.push_back(job_id);
      }
    }
    for (const auto& job_id : stale) inst->cancel_if_waiting(job_id);
    inst->env().schedule_after(3600.0, *this);
  }
};

void schedule_give_up(Instance& inst, Duration patience) {
  inst.env().schedule_after(3600.0, GiveUpSweep{&inst, patience});
}

// --- campus and crunch ----------------------------------------------------

/// Fig. 2's five-group demand, as bench/fig2_utilization.cpp defines it.
std::vector<GroupDemand> fig2_demand() {
  auto machine = [](const std::string& hostname) {
    return gu::Platform::machine_id_for(hostname);
  };
  GroupDemand vision;
  vision.name = "vision";
  vision.owned_nodes = {machine("ws-vision-0"), machine("ws-vision-1"),
                        machine("ws-vision-2"), machine("ws-vision-3"),
                        machine("ws-vision-4")};
  vision.burst_jobs_per_day = 13.5;
  vision.idle_jobs_per_day = 0.7;
  vision.burst_days = 7.0;
  vision.gap_days = 14.0;
  vision.phase_days = 0.0;
  vision.sessions_per_day = 7.0;
  vision.profile_mix = {0.50, 0.35, 0.12, 0.03};

  GroupDemand nlp;
  nlp.name = "nlp";
  nlp.owned_nodes = {machine("ws-nlp-0"), machine("ws-nlp-1"),
                     machine("ws-nlp-2"), machine("srv-nlp-big")};
  nlp.burst_jobs_per_day = 9.8;
  nlp.idle_jobs_per_day = 0.7;
  nlp.burst_days = 7.0;
  nlp.gap_days = 14.0;
  nlp.phase_days = 4.0;
  nlp.sessions_per_day = 6.0;
  nlp.profile_mix = {0.15, 0.25, 0.45, 0.15};

  GroupDemand mlsys;
  mlsys.name = "mlsys";
  mlsys.owned_nodes = {machine("srv-mlsys-0")};
  mlsys.burst_jobs_per_day = 17.7;
  mlsys.idle_jobs_per_day = 1.1;
  mlsys.burst_days = 7.0;
  mlsys.gap_days = 14.0;
  mlsys.phase_days = 9.0;
  mlsys.sessions_per_day = 4.0;
  mlsys.profile_mix = {0.25, 0.30, 0.30, 0.15};

  GroupDemand bio;
  bio.name = "bio";
  bio.owned_nodes = {machine("srv-bio-0")};
  bio.burst_jobs_per_day = 1.85;
  bio.idle_jobs_per_day = 0.2;
  bio.burst_days = 7.0;
  bio.gap_days = 14.0;
  bio.phase_days = 13.0;
  bio.sessions_per_day = 2.0;
  bio.profile_mix = {0.10, 0.20, 0.45, 0.25};

  GroupDemand theory;
  theory.name = "theory";
  theory.burst_jobs_per_day = 32.0;
  theory.idle_jobs_per_day = 32.0;
  theory.burst_days = 1.0;
  theory.gap_days = 0.0;
  theory.sessions_per_day = 5.0;
  theory.profile_mix = {0.65, 0.30, 0.05, 0.0};
  theory.duration_scale = 0.6;

  return {vision, nlp, mlsys, bio, theory};
}

/// The paper's fleet configured as Fig. 2 configures its GPUnion arm.
gu::CampusConfig fig2_campus() {
  gu::CampusConfig config = gu::paper_campus();
  gu::baseline::apply_preset(config, gu::baseline::Preset::kGpunion);
  config.coordinator.heartbeat_interval = 60.0;
  config.agent_defaults.telemetry_interval = 600.0;
  config.scrape_interval = 600.0;
  return config;
}

Inputs fig2_inputs(const std::vector<GroupDemand>& demand, SimTime horizon,
                   double churn_per_day, std::uint64_t seed) {
  Inputs inputs;
  for (auto& event : gu::workload::generate_campus_trace(
           demand, horizon, gu::util::Rng(seed))) {
    inputs.submissions.push_back({event.at, std::move(event.job)});
  }
  gu::workload::InterruptionModel churn;
  churn.events_per_day = churn_per_day;
  inputs.churn = gu::workload::generate_interruptions(
      machine_ids(fig2_campus()), horizon, churn,
      gu::util::Rng(seed ^ 0x9e3779b9));
  return inputs;
}

// Why: its outcomes are the paper's (Fig. 2), so accuracy against the
// paper stays visible.  The queue is shallow, so the cost is the job
// lifecycle (heterogeneous placement, checkpoints, migration,
// migrate-back) and idle periodic work: write-behind flush ticks and
// heartbeats.  Stresses agent, storage and the churn paths; leaves the
// pass over a deep queue, heartbeat fan-in and the API idle.
class Campus : public Workload {
 public:
  double instance_seconds() const override { return 3.4; }
  Timeline timeline() const override {
    return {kWarmupEnd + kDays * 86400.0, 6.0 * 3600.0};
  }
  gu::CampusConfig config() const override { return fig2_campus(); }
  Inputs generate(std::uint64_t seed) const override {
    return fig2_inputs(fig2_demand(), timeline().horizon, kChurnPerDay, seed);
  }
  void schedule(Instance& inst, const Inputs& inputs) const override {
    schedule_submissions(inst, inputs);
    schedule_churn(inst, inputs);
    schedule_give_up(inst, 3.0 * 86400.0);
  }

 private:
  // One full 21-day experiment cycle of every group.
  static constexpr double kDays = 21.0;
  static constexpr double kChurnPerDay = 0.15;
};

// Why: it changes one property of campus, demand over capacity.  Every
// group bursts at once at 4x Fig. 2's rate, so over a hundred jobs wait
// and Coordinator::schedule_pass dominates: each pass pops every
// pending request, retries placement and re-enqueues each miss, and any
// heartbeat from a node with free capacity triggers another pass.  Owners
// reclaim, users abandon training, sessions time out.  Stresses sched,
// db and obs; leaves heartbeat fan-in and the API idle.
class Crunch : public Workload {
 public:
  double instance_seconds() const override { return 1.7; }
  Timeline timeline() const override {
    return {kWarmupEnd + kDays * 86400.0, 3600.0};
  }
  gu::CampusConfig config() const override { return fig2_campus(); }
  Inputs generate(std::uint64_t seed) const override {
    std::vector<GroupDemand> demand = fig2_demand();
    for (auto& group : demand) {
      group.phase_days = 0.0;  // the deadline aligns every group
      group.burst_jobs_per_day *= kDemandScale;
      group.idle_jobs_per_day *= kDemandScale;
      group.sessions_per_day *= kDemandScale;
    }
    return fig2_inputs(demand, timeline().horizon, kChurnPerDay, seed);
  }
  void schedule(Instance& inst, const Inputs& inputs) const override {
    schedule_submissions(inst, inputs);
    schedule_churn(inst, inputs);
    schedule_give_up(inst, kPatience);
  }

 private:
  static constexpr double kDays = 3.0;
  static constexpr double kDemandScale = 4.0;
  static constexpr double kChurnPerDay = 0.15;
  static constexpr Duration kPatience = 6.0 * 3600.0;
};

// --- fleet ------------------------------------------------------------------

// Why: the queue stays empty, so heartbeat fan-in is the cost: reconcile,
// the heartbeat monitor, network delivery, agent ticks and the event
// queue, at the paper's 2 s heartbeats.  Image caches are warm so
// minutes-long jobs finish inside the horizon.  Stresses sched heartbeat,
// net, agent and sim; leaves the pass over a queue and the API idle.
class Fleet : public Workload {
 public:
  double instance_seconds() const override { return 2.7; }
  Timeline timeline() const override { return {kWarmupEnd + kSeconds, 5.0}; }
  gu::CampusConfig config() const override {
    gu::CampusConfig config;
    for (int i = 0; i < kNodes; ++i) {
      config.nodes.push_back(
          {gu::hw::workstation_3090("ws-" + std::to_string(i)),
           "group-" + std::to_string(i % kGroups)});
    }
    config.storage.push_back({"nas-campus", 512ULL << 40});
    config.coordinator.heartbeat_interval = 2.0;
    config.coordinator.heartbeat_miss_threshold = 3;
    config.agent_defaults.heartbeat_interval = 2.0;
    return config;
  }
  Inputs generate(std::uint64_t seed) const override {
    Inputs inputs;
    gu::util::Rng rng(seed);
    const SimTime horizon = timeline().horizon;
    int next = 0;
    for (SimTime at = kWarmupEnd + rng.exponential(kArrivalsPerSecond);
         at < horizon; at += rng.exponential(kArrivalsPerSecond)) {
      const std::string group =
          "group-" + std::to_string(rng.uniform_int(0, kGroups - 1));
      JobSpec job;
      if (rng.bernoulli(kSessionShare)) {
        job = gu::workload::make_interactive_session(
            "sess-" + std::to_string(next++),
            rng.uniform(1.0, 3.0) / 60.0, group, at);
      } else {
        job = gu::workload::make_training_job(
            "train-" + std::to_string(next++), gu::workload::cnn_small(),
            rng.uniform(0.5, 2.0) / 60.0, group, at);
        job.checkpoint_interval = 60.0;
      }
      inputs.submissions.push_back({at, std::move(job)});
    }
    gu::workload::InterruptionModel churn;
    churn.events_per_day = kChurnPerDay;
    churn.min_downtime = 60.0;
    churn.max_downtime = 600.0;
    churn.temporary_downtime = 120.0;
    inputs.churn = gu::workload::generate_interruptions(
        machine_ids(config()), horizon, churn, rng.fork("churn"));
    return inputs;
  }
  void schedule(Instance& inst, const Inputs& inputs) const override {
    // Warm every image cache before the clock starts: cold 6 GB pulls
    // share one backbone and almost no job would finish in the horizon.
    for (const auto& machine_id : inst.platform().machine_ids()) {
      auto& runtime = inst.platform().agent(machine_id)->runtime();
      runtime.mark_image_cached("pytorch:2.3-cuda12.1");
      runtime.mark_image_cached("jupyter-dl:latest");
    }
    schedule_submissions(inst, inputs);
    schedule_churn(inst, inputs);
  }

 private:
  static constexpr int kNodes = 2000;
  static constexpr int kGroups = 16;
  static constexpr double kSeconds = 200.0;
  // About half the fleet busy: arrivals x mean job length ~ nodes / 2.
  static constexpr double kArrivalsPerSecond = 10.0;
  static constexpr double kSessionShare = 0.4;
  static constexpr double kChurnPerDay = 3.2;
};

// --- tenants -----------------------------------------------------------------

/// Zipf(1) rank over 1..n via the log-uniform approximation (the same
/// generator bench/api_traffic.cpp uses).
std::uint64_t zipf_rank(gu::util::Rng& rng, std::uint64_t n) {
  const double u = rng.uniform(0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::exp(u * std::log(static_cast<double>(n))));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

// Why: the only workload through src/api/ and the seat/slot tenancy
// paths.  An open loop of a Zipf tenant population above capacity keeps
// dozens of tenants backlogged, so each drain scans them in DRF order;
// users read (status polls, batched too) as well as write, and cancel
// after a patience.  Session working sets straddle the fractional cap, so
// adaptive_sharing packs some into time-slice seats.  Stresses api, agent
// time-slicing and hw; leaves churn and migration idle.
class Tenants : public Workload {
 public:
  double instance_seconds() const override { return 0.8; }
  Timeline timeline() const override {
    return {kWarmupEnd + kSeconds, 60.0};
  }
  gu::CampusConfig config() const override {
    gu::CampusConfig config;
    for (int i = 0; i < kNodes; ++i) {
      config.nodes.push_back(
          {gu::hw::with_timeslicing(
               gu::hw::workstation_3090("ts-" + std::to_string(i)), 4, 2.0,
               12.0),
           "lab-" + std::to_string(i % 4)});
    }
    config.storage.push_back({"nas-campus", 64ULL << 40});
    config.coordinator.strategy = std::string(gu::sched::kAdaptiveSharing);
    config.agent_defaults.telemetry_interval = 600.0;
    config.scrape_interval = 600.0;
    config.api.enabled = true;
    config.api.default_quota.max_in_flight = 4;
    config.api.default_quota.max_queued = 8;
    return config;
  }
  Inputs generate(std::uint64_t seed) const override {
    Inputs inputs;
    gu::util::Rng rng(seed);
    const SimTime horizon = timeline().horizon;
    int next = 0;
    for (SimTime at = kWarmupEnd + rng.exponential(kRequestsPerSecond);
         at < horizon; at += rng.exponential(kRequestsPerSecond)) {
      TenantRequest request;
      request.at = at;
      request.tenant = "u" + std::to_string(zipf_rank(rng, kPopulation));
      const int jobs = rng.bernoulli(kBatchShare)
                           ? static_cast<int>(rng.uniform_int(2, 6))
                           : 1;
      const bool sessions = rng.bernoulli(kSessionShare);
      for (int i = 0; i < jobs; ++i) {
        const std::string id = "j" + std::to_string(next++);
        JobSpec job;
        if (sessions) {
          job = gu::workload::make_interactive_session(
              id, rng.uniform(10.0, 30.0) / 60.0, request.tenant, at);
          // Working sets on both sides of the 6 GB fractional cap.
          job.requirements.gpu_memory_gb =
              kSessionMemoryGb[rng.uniform_int(0, 3)];
        } else {
          job = gu::workload::make_training_job(
              id, gu::workload::cnn_small(), rng.uniform(5.0, 15.0) / 60.0,
              request.tenant, at);
          job.checkpoint_interval = 300.0;
        }
        request.jobs.push_back(std::move(job));
      }
      request.poll_after = rng.uniform(30.0, 300.0);
      request.patience = sessions ? 600.0 : 1800.0;
      inputs.requests.push_back(std::move(request));
    }
    return inputs;
  }
  void schedule(Instance& inst, const Inputs& inputs) const override {
    for (const auto& request : inputs.requests) {
      const TenantRequest* r = &request;
      inst.env().schedule_at(r->at, [&inst, r] { inst.api_submit(*r); });
      inst.env().schedule_at(r->at + r->poll_after,
                             [&inst, r] { inst.api_poll(*r); });
      inst.env().schedule_at(r->at + r->patience,
                             [&inst, r] { inst.api_give_up(*r); });
    }
  }

 private:
  static constexpr int kNodes = 32;
  static constexpr double kSeconds = 5400.0;
  static constexpr std::uint64_t kPopulation = 5000;
  static constexpr double kRequestsPerSecond = 0.12;
  static constexpr double kBatchShare = 0.1;
  static constexpr double kSessionShare = 0.75;
  static constexpr double kSessionMemoryGb[4] = {4.0, 6.0, 10.0, 12.0};
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "campus") return std::make_unique<Campus>();
  if (name == "crunch") return std::make_unique<Crunch>();
  if (name == "fleet") return std::make_unique<Fleet>();
  if (name == "tenants") return std::make_unique<Tenants>();
  return nullptr;
}

}  // namespace perfbench
