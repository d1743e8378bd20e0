// One instance: set-up, the timed phase in slices, output checks,
// the simulated-outcome digest and, when traced, the per-layer metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "sched/placement_engine.h"

namespace perfbench {

namespace gu = gpunion;
using gu::sched::JobPhase;

namespace {

// --- Layer counters ----------------------------------------------------------

/// Monotone counters read through public accessors.  Slice spans carry
/// their per-slice deltas; the timed phase's deltas become layer metrics.
struct Counter {
  const char* name;
  double value;
};
using Counters = std::vector<Counter>;

double agent_sum(gu::Platform& platform,
                 double (*field)(const gu::agent::TimesliceStats&)) {
  double sum = 0;
  for (const auto& machine_id : platform.machine_ids()) {
    sum += field(platform.agent(machine_id)->timeslice_stats());
  }
  return sum;
}

Counters read_counters(Instance& inst) {
  gu::Platform& platform = inst.platform();
  const gu::sched::Coordinator& coordinator = platform.coordinator();
  const gu::sched::CoordinatorStats& stats = coordinator.stats();
  const gu::db::ShardedDatabase& db = platform.database();
  const gu::db::LedgerStats& ledger = db.ledger().stats();
  const gu::net::SimNetwork& net = platform.network();
  auto bytes = [&net](gu::net::TrafficClass c) {
    return static_cast<double>(net.bytes_sent(c));
  };
  auto d = [](auto v) { return static_cast<double>(v); };
  gu::api::ApiStats api;
  if (platform.has_api()) api = platform.api().stats();
  return {
      {"sim.events", d(inst.env().processed_events())},
      {"sched.heartbeats", d(stats.heartbeats_processed)},
      {"sched.queue_pops", d(db.local_pops() + db.stolen_pops())},
      {"sched.dispatches", d(stats.dispatches_sent)},
      {"sched.dispatch_rejects", d(stats.dispatches_rejected)},
      {"sched.candidates_examined",
       d(coordinator.placement_engine().candidates_examined())},
      {"sched.sweeps", d(coordinator.heartbeat_monitor().sweeps())},
      {"sched.sweep_examined",
       d(coordinator.heartbeat_monitor().total_examined())},
      {"sched.interruptions", d(stats.interruptions)},
      {"net.messages", d(net.messages_delivered())},
      {"net.dropped", d(net.messages_dropped())},
      {"net.bytes.heartbeat", bytes(gu::net::TrafficClass::kHeartbeat)},
      {"net.bytes.control", bytes(gu::net::TrafficClass::kControl)},
      {"net.bytes.image", bytes(gu::net::TrafficClass::kImage)},
      {"net.bytes.checkpoint", bytes(gu::net::TrafficClass::kCheckpoint)},
      {"net.bytes.migration", bytes(gu::net::TrafficClass::kMigration)},
      {"db.ops", d(db.op_count())},
      {"db.sync_ops", d(db.sync_op_count())},
      {"db.wal_appends", d(db.wal().stats().appended)},
      {"db.ledger_absorbed", d(ledger.absorbed)},
      {"db.ledger_flushes", d(ledger.flushes)},
      {"db.interval_flushes", d(ledger.interval_flushes)},
      {"db.shard_commits", d(ledger.shard_commits)},
      {"api.submits", d(api.totals.submitted)},
      {"api.accepted", d(api.totals.accepted)},
      {"api.rejected",
       d(api.totals.rejected_overloaded + api.totals.rejected_quota +
         api.totals.rejected_invalid)},
      {"api.dispatched", d(api.totals.dispatched)},
      {"api.cancelled", d(api.totals.cancelled_queued)},
      {"api.drains", d(api.drains)},
      {"agent.ts_quanta",
       agent_sum(platform, [](const gu::agent::TimesliceStats& s) {
         return static_cast<double>(s.quanta);
       })},
      {"agent.ts_swaps",
       agent_sum(platform, [](const gu::agent::TimesliceStats& s) {
         return static_cast<double>(s.swaps);
       })},
      {"obs.spans", d(platform.tracer().recorded())},
      {"obs.spans_dropped", d(platform.tracer().dropped())},
  };
}

double delta(const Counters& before, const Counters& after,
             std::string_view name) {
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (name == after[i].name) return after[i].value - before[i].value;
  }
  return 0;
}

std::string delta_detail(const Counters& before, const Counters& after) {
  std::string out;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double d = after[i].value - before[i].value;
    if (d == 0) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s=%.15g", out.empty() ? "" : ",",
                  after[i].name, d);
    out += buf;
  }
  return out;
}

/// Samples taken at slice boundaries (traced instances only).
struct SliceStats {
  gu::util::SampleSet slice_ms;
  double loop_self_s = 0;
  double pending_sum = 0;
  double pending_peak = 0;
  double backlogged_peak = 0;
  double queue_peak = 0;
  int samples = 0;

  void sample(Instance& inst) {
    double pending = 0;
    for (const auto& [id, record] : inst.coordinator().jobs()) {
      if (record.phase == JobPhase::kPending) ++pending;
    }
    pending_sum += pending;
    pending_peak = std::max(pending_peak, pending);
    if (inst.platform().has_api()) {
      backlogged_peak = std::max(
          backlogged_peak,
          static_cast<double>(
              inst.platform().api().drf_queue().backlogged().size()));
    }
    queue_peak = std::max(queue_peak,
                          static_cast<double>(inst.env().pending_events()));
    ++samples;
  }
};

// --- Outcomes and checks -----------------------------------------------------

/// Records a broken identity `what`: `a` should equal `b`.
void expect_equal(InstanceResult& result, const char* what, double a,
                  double b) {
  if (a == b) return;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: %.0f != %.0f", what, a, b);
  result.errors.push_back(buf);
}

/// Classifies every offered job exactly once as completed, failed or
/// unfinished, checks the conservation identities against the program's
/// own counters, and fills the simulated outcomes and the digest.
void collect_outcomes(Instance& inst, const Timeline& timeline,
                      InstanceResult& result) {
  gu::sched::Coordinator& coordinator = inst.coordinator();
  const gu::sched::CoordinatorStats& stats = coordinator.stats();
  gu::Platform& platform = inst.platform();
  Outcome& out = result.outcome;
  std::string& digest = result.digest_text;
  double in_core = 0;
  for (const auto& [id, offer] : inst.offers()) {
    ++out.ops;
    std::string phase = "refused";
    SimTime first = -1, done = -1;
    if (offer.refused) {
      ++out.refused;
      ++out.failed;
    } else if (const gu::sched::JobRecord* record = coordinator.job(id)) {
      ++in_core;
      phase = std::string(gu::sched::job_phase_name(record->phase));
      first = record->first_dispatched_at;
      done = record->completed_at;
      switch (record->phase) {
        case JobPhase::kCompleted:
          ++out.completed;
          if (offer.interactive) ++out.sessions_served;
          break;
        case JobPhase::kDenied:
          ++out.denied;
          ++out.failed;
          break;
        case JobPhase::kSessionDisrupted:
          ++out.disrupted;
          ++out.failed;
          break;
        case JobPhase::kCancelled:
          ++out.failed;
          break;
        default:
          ++out.unfinished;
      }
    } else if (platform.has_api()) {
      // Never reached the core: still queued at the edge, or left it.
      phase = platform.api().status(offer.tenant, id).phase;
      if (phase == "queued_api") {
        ++out.unfinished;
      } else if (phase == "cancelled_api" || phase == "quota_dropped" ||
                 phase == "dispatch_rejected") {
        ++out.failed;
      } else {
        result.errors.push_back("job " + id + " is lost (api phase " + phase +
                                ")");
      }
    } else {
      result.errors.push_back("job " + id + " is unknown to the coordinator");
    }
    if (first >= 0) out.waits.push_back(first - offer.submitted_at);
    char line[192];
    std::snprintf(line, sizeof(line), "%s %s %.17g %.17g\n", id.c_str(),
                  phase.c_str(), first, done);
    digest += line;
  }

  expect_equal(result, "completed + failed + unfinished vs offered",
               out.completed + out.failed + out.unfinished, out.ops);
  expect_equal(result, "jobs completed vs coordinator", out.completed,
               stats.jobs_completed);
  expect_equal(result, "sessions served vs coordinator", out.sessions_served,
               stats.sessions_served);
  expect_equal(result, "sessions denied vs coordinator", out.denied,
               stats.sessions_denied);
  expect_equal(result, "sessions disrupted vs coordinator", out.disrupted,
               stats.sessions_disrupted);
  expect_equal(result, "jobs in the coordinator vs submitted", in_core,
               stats.jobs_submitted);
  const gu::sched::OperationalStats census = coordinator.operational_stats();
  expect_equal(result, "coordinator phase census vs submitted",
               census.pending + census.dispatching + census.running +
                   census.completed + census.denied + census.disrupted +
                   census.cancelled,
               stats.jobs_submitted);
  if (platform.has_api()) {
    const gu::api::ApiServer& api = platform.api();
    const gu::api::TenantCounters& t = api.stats().totals;
    auto d = [](auto v) { return static_cast<double>(v); };
    expect_equal(result,
                 "api accepted vs dispatched + queued + quota_dropped + "
                 "cancelled + dispatch_rejected",
                 d(t.accepted),
                 d(t.dispatched + api.total_queued() + t.quota_dropped +
                   t.cancelled_queued + t.dispatch_rejected));
    expect_equal(result, "edge refusals vs api", out.refused,
                 d(t.rejected_overloaded + t.rejected_quota +
                   t.rejected_invalid));
    expect_equal(result, "offered vs api submits", out.ops, d(t.submitted));
  }

  // Fig. 3: departure-displaced training jobs resumed within the window.
  // Displacements too close to the horizon to have been decided are left
  // out.
  const Duration window = coordinator.config().migration_success_window;
  for (const auto& m : coordinator.migrations().records()) {
    if (m.migrate_back_eviction ||
        m.cause == gu::agent::DepartureKind::kReclaim) {
      continue;
    }
    if (!m.resumed() && coordinator.migrations().has_open(m.job_id) &&
        m.interrupted_at + window > timeline.horizon) {
      continue;
    }
    ++out.displaced;
    if (m.resumed() && m.downtime() <= window) ++out.resumed;
  }

  out.gpu_util =
      platform.fleet_utilization(kWarmupEnd, timeline.horizon);
  char line[64];
  std::snprintf(line, sizeof(line), "gpu_util %.17g\n", out.gpu_util);
  digest += line;
  result.failed_calls = inst.failed_calls();
}

// --- Placement drill ---------------------------------------------------------

/// Times place() for every pending job against a copy of the directory,
/// so the live engine's state (round_robin's cursor) is never disturbed.
gu::util::SampleSet placement_drill(Instance& inst, Probe& probe) {
  gu::util::SampleSet place_us;
  const std::uint64_t drill = probe.open("placement_drill");
  gu::sched::Coordinator& coordinator = inst.coordinator();
  gu::sched::Directory directory;
  for (const gu::sched::NodeInfo* node : coordinator.directory().all()) {
    directory.upsert(*node);
  }
  gu::sched::PlacementEngine engine(directory, coordinator.reliability(),
                                    coordinator.config().policy,
                                    coordinator.config().strategy);
  for (const auto& [id, record] : coordinator.jobs()) {
    if (record.phase != JobPhase::kPending) continue;
    const std::uint64_t span = probe.open(
        "PlacementEngine::place", gu::obs::Tracer::trace_for_job(id));
    (void)engine.place(record.spec, record.preferred_node, inst.env().now());
    place_us.add(probe.close(span) * 1e6);
  }
  probe.close(drill);
  return place_us;
}

double percentile_of(const Probe& probe, std::string_view call, double p) {
  auto it = probe.call_us.find(call);
  return it == probe.call_us.end() ? 0.0 : it->second.percentile(p);
}

/// Host microseconds of every call named in `calls`, pooled.
gu::util::SampleSet pooled(const Probe& probe,
                           std::initializer_list<std::string_view> calls) {
  gu::util::SampleSet out;
  for (const auto call : calls) {
    auto it = probe.call_us.find(call);
    if (it == probe.call_us.end()) continue;
    for (const double v : it->second.samples()) out.add(v);
  }
  return out;
}

Metrics layer_metrics(Instance& inst, const Timeline& timeline,
                      const Counters& c0, const Counters& c1,
                      const std::vector<std::uint64_t>& shard_ops0,
                      const SliceStats& slices, const Probe& probe,
                      const gu::util::SampleSet& place_us) {
  gu::Platform& platform = inst.platform();
  auto dc = [&](std::string_view name) { return delta(c0, c1, name); };
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  std::vector<std::uint64_t> shard_ops = platform.database().shard_op_counts();
  double hottest = 0;
  for (std::size_t i = 0; i < shard_ops.size(); ++i) {
    hottest = std::max(hottest,
                       static_cast<double>(shard_ops[i] - shard_ops0[i]));
  }
  // The flush timer ticks every flush_interval from start() at t = 0.
  const Duration flush = platform.config().db.flush_interval;
  const double ticks =
      std::floor(timeline.horizon / flush) -
      std::floor(kWarmupEnd / flush);

  double swap_s = 0, max_swap = 0, widenings = 0, evictions = 0;
  for (const auto& machine_id : platform.machine_ids()) {
    const auto& ts = platform.agent(machine_id)->timeslice_stats();
    swap_s += ts.swap_seconds;
    max_swap = std::max(max_swap, ts.max_swap_per_quantum);
    widenings += static_cast<double>(ts.quantum_widenings);
    evictions += static_cast<double>(ts.thrash_evictions);
  }
  double migrations = 0, migrate_backs = 0;
  for (const auto& m : inst.coordinator().migrations().records()) {
    if (!m.resumed() || m.migrate_back_eviction) continue;
    if (m.was_migrate_back) {
      ++migrate_backs;
    } else if (m.to_node != m.from_node) {
      ++migrations;
    }
  }

  const gu::util::SampleSet submit_us =
      pooled(probe, {"Coordinator::submit"});
  const gu::util::SampleSet api_submit_us =
      pooled(probe, {"ApiServer::submit", "ApiServer::submit_batch"});
  const gu::util::SampleSet status_us =
      pooled(probe, {"ApiServer::status", "ApiServer::status_batch"});
  const gu::util::SampleSet interrupt_us =
      pooled(probe, {"Platform::inject_interruption"});
  const double pops = dc("sched.queue_pops");
  const double api_admit_p99 =
      platform.has_api()
          ? platform.api().admission_latency().percentile(99)
          : 0.0;

  return {
      {"sched.queue_pops", pops, "count"},
      {"sched.dispatches", dc("sched.dispatches"), "count"},
      {"sched.dispatch_rejects", dc("sched.dispatch_rejects"), "count"},
      {"sched.place_yield", ratio(dc("sched.dispatches"), pops), "ratio"},
      {"sched.pending_mean", ratio(slices.pending_sum, slices.samples),
       "count"},
      {"sched.pending_peak", slices.pending_peak, "count"},
      {"sched.candidates_examined", dc("sched.candidates_examined"), "count"},
      {"sched.place_us_p50", place_us.percentile(50), "us"},
      {"sched.place_us_p99", place_us.percentile(99), "us"},
      {"sched.submit_us_p50", submit_us.percentile(50), "us"},
      {"sched.submit_us_p99", submit_us.percentile(99), "us"},
      {"sched.cancel_us_p50", percentile_of(probe, "Coordinator::cancel", 50),
       "us"},
      {"sched.heartbeats", dc("sched.heartbeats"), "count"},
      {"sched.sweeps", dc("sched.sweeps"), "count"},
      {"sched.sweep_examined", dc("sched.sweep_examined"), "count"},
      {"net.messages", dc("net.messages"), "count"},
      {"net.dropped", dc("net.dropped"), "count"},
      {"net.bytes.heartbeat", dc("net.bytes.heartbeat"), "bytes"},
      {"net.bytes.control", dc("net.bytes.control"), "bytes"},
      {"net.bytes.image", dc("net.bytes.image"), "bytes"},
      {"db.ops", dc("db.ops"), "count"},
      {"db.sync_ops", dc("db.sync_ops"), "count"},
      {"db.hottest_shard_ops", hottest, "count"},
      {"db.wal_appends", dc("db.wal_appends"), "count"},
      {"db.ledger_absorbed", dc("db.ledger_absorbed"), "count"},
      {"db.ledger_flushes", dc("db.ledger_flushes"), "count"},
      {"db.shard_commits", dc("db.shard_commits"), "count"},
      {"db.idle_flush_ticks",
       platform.config().db.write_behind
           ? ticks - dc("db.interval_flushes")
           : 0.0,
       "count"},
      {"api.submits", dc("api.submits"), "count"},
      {"api.accepted", dc("api.accepted"), "count"},
      {"api.rejected", dc("api.rejected"), "count"},
      {"api.dispatched", dc("api.dispatched"), "count"},
      {"api.cancelled", dc("api.cancelled"), "count"},
      {"api.drains", dc("api.drains"), "count"},
      {"api.drain_yield", ratio(dc("api.dispatched"), dc("api.drains")),
       "ratio"},
      {"api.backlogged_peak", slices.backlogged_peak, "count"},
      {"api.submit_us_p50", api_submit_us.percentile(50), "us"},
      {"api.submit_us_p99", api_submit_us.percentile(99), "us"},
      {"api.status_us_p50", status_us.percentile(50), "us"},
      {"api.status_us_p99", status_us.percentile(99), "us"},
      {"api.admit_wait_p99_s", api_admit_p99, "sim_s"},
      {"agent.ts_quanta", dc("agent.ts_quanta"), "count"},
      {"agent.ts_swaps", dc("agent.ts_swaps"), "count"},
      {"agent.ts_swap_s", swap_s, "sim_s"},
      {"agent.ts_max_swap_s", max_swap, "sim_s"},
      {"agent.ts_widenings", widenings, "count"},
      {"agent.ts_evictions", evictions, "count"},
      {"sched.interruptions", dc("sched.interruptions"), "count"},
      {"sched.migrations", migrations, "count"},
      {"sched.migrate_backs", migrate_backs, "count"},
      {"agent.interrupt_us_p50", interrupt_us.percentile(50), "us"},
      {"agent.interrupt_us_max", interrupt_us.max(), "us"},
      {"net.bytes.checkpoint", dc("net.bytes.checkpoint"), "bytes"},
      {"net.bytes.migration", dc("net.bytes.migration"), "bytes"},
      {"storage.stored_bytes",
       static_cast<double>(platform.checkpoint_store().total_stored_bytes()),
       "bytes"},
      {"sim.events", dc("sim.events"), "count"},
      {"sim.queue_peak", slices.queue_peak, "count"},
      {"sim.slice_ms_p50", slices.slice_ms.percentile(50), "ms"},
      {"sim.slice_ms_max", slices.slice_ms.max(), "ms"},
      {"sim.loop_self_s", slices.loop_self_s, "s"},
      {"obs.spans", dc("obs.spans"), "count"},
      {"obs.spans_dropped", dc("obs.spans_dropped"), "count"},
  };
}

}  // namespace

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

Metrics pooled_outcomes(const std::vector<const Outcome*>& outcomes,
                        Metrics* ungated, std::string* note) {
  Outcome sum;
  gu::util::SampleSet waits;
  for (const Outcome* o : outcomes) {
    sum.ops += o->ops;
    sum.completed += o->completed;
    sum.sessions_served += o->sessions_served;
    sum.unfinished += o->unfinished;
    sum.failed += o->failed;
    sum.refused += o->refused;
    sum.denied += o->denied;
    sum.disrupted += o->disrupted;
    sum.displaced += o->displaced;
    sum.resumed += o->resumed;
    sum.gpu_util += o->gpu_util;
    for (const double w : o->waits) waits.add(w);
  }
  const double n = static_cast<double>(outcomes.size());
  // The highest of the usual percentiles with at least ten samples beyond.
  double tail_pct = 0;
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(waits.count()) * (1.0 - p / 100.0) >= 10.0) {
      tail_pct = p;
      break;
    }
  }
  char line[400];
  std::snprintf(
      line, sizeof(line),
      "per instance over %.0f instances: ops=%.1f completed=%.1f "
      "unfinished=%.1f failed=%.1f (refused=%.1f denied=%.1f disrupted=%.1f "
      "abandoned=%.1f) failed_share=%.6f; wait_tail is p%g of %zu waits; "
      "migration_success over %.0f displaced jobs",
      n, sum.ops / n, sum.completed / n, sum.unfinished / n, sum.failed / n,
      sum.refused / n, sum.denied / n, sum.disrupted / n,
      (sum.failed - sum.refused - sum.denied - sum.disrupted) / n,
      sum.ops == 0 ? 0.0 : sum.failed / sum.ops, tail_pct, waits.count(),
      sum.displaced);
  *note = line;
  // Heavy-tailed or sparse on some workloads: reported, not gated.
  *ungated = {
      {"sched.wait_tail_s", waits.percentile(tail_pct), "sim_s"},
      // With no displaced job at all the share is vacuously 1.
      {"sched.migration_success",
       sum.displaced == 0 ? 1.0 : sum.resumed / sum.displaced, "ratio"},
  };
  return {
      {"gpu_util", sum.gpu_util / n, "ratio"},
      {"jobs_completed", sum.completed / n, "count"},
      {"sessions_served", sum.sessions_served / n, "count"},
      {"wait_p50_s", waits.percentile(50), "sim_s"},
      {"ok_share", sum.ops == 0 ? 0.0 : 1.0 - sum.failed / sum.ops, "ratio"},
  };
}

InstanceResult run_instance(const Workload& workload, std::uint64_t seed,
                            Probe* probe) {
  InstanceResult result;
  const Timeline timeline = workload.timeline();
  auto open = [probe](std::string_view name) {
    return probe == nullptr ? 0 : probe->open(name);
  };
  auto close = [probe](std::uint64_t span) {
    if (probe != nullptr) probe->close(span);
  };

  // --- Set-up ----------------------------------------------------------------
  const double t0 = wall_now();
  const std::uint64_t setup_span = open("setup");
  std::uint64_t span = open("setup.generate");
  const Inputs inputs = workload.generate(seed);
  close(span);
  const double t1 = wall_now();
  span = open("setup.construct");
  Instance inst(workload.config(), probe);
  close(span);
  const double t2 = wall_now();
  span = open("setup.start");
  inst.platform().start();
  close(span);
  const double t3 = wall_now();
  span = open("setup.warmup");
  inst.env().run_until(kWarmupEnd);
  workload.schedule(inst, inputs);
  close(span);
  close(setup_span);
  const double t4 = wall_now();
  result.setup_s = t4 - t0;

  // --- Timed phase -----------------------------------------------------------
  Counters c0, before;
  std::vector<std::uint64_t> shard_ops0;
  SliceStats slices;
  if (probe != nullptr) {
    c0 = read_counters(inst);
    before = c0;
    shard_ops0 = inst.platform().database().shard_op_counts();
    slices.sample(inst);
  }
  const std::uint64_t run_span = open("run");
  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  for (SimTime t = kWarmupEnd; t < timeline.horizon;) {
    const SimTime next = std::min(t + timeline.slice, timeline.horizon);
    if (probe == nullptr) {
      inst.env().run_until(next);
    } else {
      probe->slice_covered_s = 0;
      const std::uint64_t slice = probe->open("slice");
      inst.env().run_until(next);
      const double seconds = probe->close(slice);
      Counters after = read_counters(inst);
      char at[48];
      std::snprintf(at, sizeof(at), "sim_t=%.0f,", next);
      probe->annotate(slice, at + delta_detail(before, after));
      slices.slice_ms.add(seconds * 1e3);
      slices.loop_self_s += seconds - probe->slice_covered_s;
      slices.sample(inst);
      before = std::move(after);
    }
    t = next;
  }
  result.cpu_s = cpu_now() - cpu0;
  result.wall_s = wall_now() - wall0;
  close(run_span);

  collect_outcomes(inst, timeline, result);

  if (probe != nullptr) {
    const gu::util::SampleSet place_us = placement_drill(inst, *probe);
    result.layers = layer_metrics(inst, timeline, c0, before, shard_ops0,
                                  slices, *probe, place_us);
    result.layers.insert(result.layers.end(),
                         {{"setup.generate_s", t1 - t0, "s"},
                          {"setup.construct_s", t2 - t1, "s"},
                          {"setup.start_s", t3 - t2, "s"},
                          {"setup.warmup_s", t4 - t3, "s"}});
    result.heartbeats = delta(c0, before, "sched.heartbeats");
    result.events = delta(c0, before, "sim.events");
  }
  return result;
}

}  // namespace perfbench
