// §5.2 Scalability: coordinator capacity vs fleet size.
//
// Paper: "the central coordinator handles up to 50 nodes with sub-second
// scheduling latency.  However, beyond 200 nodes, heartbeat monitoring and
// database contention could become bottlenecks."
//
// Real micro-benchmarks (google-benchmark): wall-clock cost of one
// placement decision through the indexed ClusterView and of one
// heartbeat-monitor sweep over an N-node directory, plus the event queue's
// push/cancel/pop cost.  bench_scalability_campus measures the real system
// end to end.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "db/database.h"
#include "sched/directory.h"
#include "sched/heartbeat_monitor.h"
#include "sched/placement_engine.h"
#include "sched/policy.h"
#include "sched/strategies.h"
#include "sim/environment.h"
#include "workload/profiles.h"

namespace gpunion::bench {
namespace {

void populate_directory(sched::Directory& directory, int nodes) {
  // A saturated campus: most nodes are busy (placement decisions happen at
  // full queues), only every 8th has capacity — the regime where an index
  // beats rescanning the fleet per decision.
  for (int i = 0; i < nodes; ++i) {
    sched::NodeInfo info;
    info.machine_id = "m-" + std::to_string(100000 + i);
    info.owner_group = "g" + std::to_string(i % 8);
    info.gpu_count = 1 + i % 8;
    info.free_gpus = i % 8 == 0 ? info.gpu_count : 0;
    info.gpu_memory_gb = i % 2 == 0 ? 24.0 : 48.0;
    info.compute_capability = 8.6;
    info.gpu_tflops = 35.6;
    info.status = db::NodeStatus::kActive;
    info.accepting = true;
    info.last_heartbeat = 0.0;
    directory.upsert(std::move(info));
  }
}

/// Placement through the indexed engine.  Steady state: only the dispatch
/// target's bucket entry moves between decisions (dirty-node invalidation),
/// never a full rescan.
void BM_PlacementDecisionIndexed(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  sched::Directory directory;
  populate_directory(directory, nodes);
  sched::ReliabilityPredictor reliability;
  sched::PlatformPolicy policy;
  sched::PlacementEngine engine(directory, reliability, policy,
                                std::string(sched::kRoundRobin));
  const workload::JobSpec job = workload::make_training_job(
      "bench-job", workload::cnn_small(), 4.0, "g1", 0.0);
  for (auto _ : state) {
    auto decision = engine.place(job, "", 0.0);
    benchmark::DoNotOptimize(decision);
    if (decision) {
      // Mimic the dispatch/complete cycle so the dirty set stays small.
      directory.reserve_gpus(decision->node->machine_id, 1);
      directory.release_gpus(decision->node->machine_id, 1);
    }
  }
  state.SetLabel(std::to_string(nodes) + " nodes");
}
BENCHMARK(BM_PlacementDecisionIndexed)->Arg(10)->Arg(50)->Arg(200)->Arg(400);

/// Expiry-ordered sweep: steady state (no expirations) pops nothing, so
/// the cost is O(1) regardless of fleet size.
void BM_HeartbeatSweep(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  sim::Environment env;
  sched::Directory directory;
  populate_directory(directory, nodes);
  sched::HeartbeatMonitor monitor(env, directory, 2.0, 3, nullptr);
  for (int i = 0; i < nodes; ++i) {
    monitor.observe("m-" + std::to_string(100000 + i), 0.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.sweep());
  }
  state.SetLabel(std::to_string(nodes) + " nodes");
}
BENCHMARK(BM_HeartbeatSweep)->Arg(10)->Arg(50)->Arg(200)->Arg(400);

// ---------------------------------------------------------------------------
// Event-queue microbenches: the simulation's one binary heap.
// ---------------------------------------------------------------------------

/// Steady-state push/cancel/pop cycle.
void BM_EventQueuePushCancelPop(benchmark::State& state) {
  sim::EventQueue queue;
  double t = 0;
  for (auto _ : state) {
    t += 1.0;
    const sim::EventId cancelled = queue.push(t, [] {});
    queue.push(t + 0.5, [] {});
    queue.cancel(cancelled);
    benchmark::DoNotOptimize(queue.pop());  // skims the tombstone
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_EventQueuePushCancelPop);

/// Tombstone-compaction stress: cancel nearly everything, then pop — the
/// skim has to chew through the tombstones and the amortized compaction
/// has to keep the heap from growing without bound.
void BM_EventQueueTombstoneCompaction(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      ids.push_back(queue.push(1.0 + i, [] {}));
    }
    for (int i = 0; i + 1 < batch; ++i) queue.cancel(ids[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(queue.pop());
    benchmark::DoNotOptimize(queue.compactions());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueTombstoneCompaction)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace gpunion::bench

int main(int argc, char** argv) {
  std::printf("================================================================\n");
  std::printf("Scalability — coordinator capacity vs fleet size (§5.2)\n");
  std::printf("================================================================\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
