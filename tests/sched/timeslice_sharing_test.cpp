// nvshare-style time-slice seats end to end: coordinator + real agents over
// the simulated network, adaptive_sharing strategy.  Covers seat packing,
// rotation + swap accounting, thrash-driven quantum widening and eviction,
// fallback to other tenancy modes, training progress conservation under
// rotation, and a randomized invariant sweep (residency exclusivity,
// oversubscription bound, progress conservation).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "agent/provider_agent.h"
#include "net/sim_network.h"
#include "sched/coordinator.h"
#include "tests/sched/capacity_rescan.h"
#include "workload/profiles.h"

namespace gpunion::sched {
namespace {

class TimesliceSharingTest : public ::testing::Test {
 protected:
  TimesliceSharingTest() : env_(7), net_(env_, {}) {
    registry_.allow_base("nvidia/cuda:12.1-runtime");
    EXPECT_TRUE(registry_
                    .push(container::make_image("pytorch", "2.3-cuda12.1",
                                                "nvidia/cuda:12.1-runtime",
                                                6ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(registry_
                    .push(container::make_image("jupyter-dl", "latest",
                                                "nvidia/cuda:12.1-runtime",
                                                8ULL << 30, "m"))
                    .is_ok());
    EXPECT_TRUE(store_.add_node("nas", 1ULL << 40).is_ok());
  }

  void make_coordinator() {
    CoordinatorConfig config;
    config.strategy = std::string(kAdaptiveSharing);
    coordinator_ =
        std::make_unique<Coordinator>(env_, net_, database_, store_, config);
    coordinator_->start();
  }

  agent::ProviderAgent& add_agent(hw::NodeSpec spec,
                                  const std::string& group = "vision") {
    nodes_.push_back(std::make_unique<hw::NodeModel>(std::move(spec)));
    agent::AgentConfig config;
    config.owner_group = group;
    config.telemetry_interval = 1e9;
    agents_.push_back(std::make_unique<agent::ProviderAgent>(
        env_, net_, *nodes_.back(), registry_, store_, config));
    agents_.back()->join();
    env_.run_until(env_.now() + 1.0);
    return *agents_.back();
  }

  workload::JobSpec session(const std::string& id, double hours = 2.0,
                            double working_set_gb = 0) {
    auto spec =
        workload::make_interactive_session(id, hours, "theory", env_.now());
    if (working_set_gb > 0) spec.requirements.working_set_gb = working_set_gb;
    return spec;
  }

  int running_on(const std::string& machine_id) const {
    int n = 0;
    for (const auto& [job_id, record] : coordinator_->jobs()) {
      if (record.phase == JobPhase::kRunning && record.node == machine_id) {
        ++n;
      }
    }
    return n;
  }

  sim::Environment env_;
  net::SimNetwork net_;
  db::SystemDatabase database_;
  storage::CheckpointStore store_;
  container::ImageRegistry registry_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<hw::NodeModel>> nodes_;
  std::vector<std::unique_ptr<agent::ProviderAgent>> agents_;
};

TEST_F(TimesliceSharingTest, SessionsShareOneGpuByTimeslice) {
  make_coordinator();
  auto& provider =
      add_agent(hw::with_timeslicing(hw::workstation_3090("ws-0"), 4));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        coordinator_->submit(session("sess-" + std::to_string(i))).is_ok());
  }
  env_.run_until(env_.now() + 60.0);
  EXPECT_EQ(running_on(provider.machine_id()), 3);
  EXPECT_EQ(provider.running_jobs(), 3u);
  // All three are full-memory tenants of the single time-sliced GPU.
  EXPECT_EQ(nodes_[0]->free_gpu_count(), 0);
  EXPECT_EQ(nodes_[0]->free_seat_count(hw::Tenancy::kTimeslice), 1);
  const hw::GpuDevice& gpu = nodes_[0]->gpu(0);
  EXPECT_TRUE(gpu.held_as(hw::Tenancy::kTimeslice));
  EXPECT_EQ(gpu.holder_count(), 3);
  EXPECT_FALSE(gpu.resident().empty());
  for (int i = 0; i < 3; ++i) {
    const JobRecord* record = coordinator_->job("sess-" + std::to_string(i));
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->tenancy, hw::Tenancy::kTimeslice);
    EXPECT_NE(record->tenancy, hw::Tenancy::kFractional);
    const auto allocations =
        database_.allocations_for_job("sess-" + std::to_string(i));
    ASSERT_EQ(allocations.size(), 1u);
    EXPECT_DOUBLE_EQ(allocations[0].gpu_fraction, 0.25);
  }
  // Scheduling view agrees after a heartbeat settles.
  const NodeInfo* node = coordinator_->directory().find(provider.machine_id());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->free_gpus, 0);
  EXPECT_EQ(node->free_seats[hw::Tenancy::kTimeslice], 1);
}

TEST_F(TimesliceSharingTest, ResidencyRotatesWithSwapAccounting) {
  make_coordinator();
  auto& provider =
      add_agent(hw::with_timeslicing(hw::workstation_3090("ws-0"), 4));
  ASSERT_TRUE(coordinator_->submit(session("a")).is_ok());
  ASSERT_TRUE(coordinator_->submit(session("b")).is_ok());
  env_.run_until(env_.now() + util::minutes(5));
  const agent::TimesliceStats& stats = provider.timeslice_stats();
  // ~10 quanta of 30 s fit in 5 minutes; every rotation between two live
  // tenants pays a swap (6 GB out + 6 GB in at 12 GB/s = 1 s).
  EXPECT_GE(stats.quanta, 4u);
  EXPECT_GE(stats.swaps, 4u);
  EXPECT_GT(stats.swap_seconds, 0.0);
  EXPECT_NEAR(stats.max_swap_per_quantum, 1.0, 1e-9);
  // No thrash at this working-set size: the quantum never widened.
  EXPECT_EQ(stats.quantum_widenings, 0u);
  EXPECT_EQ(stats.thrash_evictions, 0u);
  // Exactly one resident; the slicer and the device agree on who.
  const hw::GpuDevice& gpu = nodes_[0]->gpu(0);
  EXPECT_EQ(provider.slicer().resident(0), gpu.resident());
  EXPECT_TRUE(gpu.resident() == "a" || gpu.resident() == "b");
}

TEST_F(TimesliceSharingTest, OversizedJobFallsBackToWholeGpu) {
  make_coordinator();
  add_agent(hw::with_timeslicing(hw::workstation_3090("ws-0"), 4));
  // Working set exceeds device VRAM (no seat) and the memory request
  // exceeds the 24/4 = 6 GB fractional cap (no slot): whole device.
  auto big = session("big", 2.0, /*working_set_gb=*/30.0);
  big.requirements.gpu_memory_gb = 10.0;
  ASSERT_TRUE(coordinator_->submit(std::move(big)).is_ok());
  env_.run_until(env_.now() + 60.0);
  const JobRecord* record = coordinator_->job("big");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->phase, JobPhase::kRunning);
  EXPECT_NE(record->tenancy, hw::Tenancy::kTimeslice);
  EXPECT_NE(record->tenancy, hw::Tenancy::kFractional);
  EXPECT_FALSE(nodes_[0]->gpu(0).held_as(hw::Tenancy::kTimeslice));
}

TEST_F(TimesliceSharingTest, ThrashWideningBoundsSwapCost) {
  make_coordinator();
  // Slow swap link: rotating two 20 GB working sets costs (20+20)/2 = 20 s,
  // above the 0.5 x 30 s thrash threshold — the slicer must widen the
  // quantum (once: 20 <= 0.5 x 60) instead of evicting.
  auto& provider = add_agent(hw::with_timeslicing(
      hw::workstation_3090("ws-0"), 2, /*oversub_ratio=*/2.0,
      /*host_swap_gbps=*/2.0));
  ASSERT_TRUE(coordinator_->submit(session("a", 2.0, 20.0)).is_ok());
  ASSERT_TRUE(coordinator_->submit(session("b", 2.0, 20.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(10));
  const agent::TimesliceStats& stats = provider.timeslice_stats();
  EXPECT_GE(stats.quantum_widenings, 1u);
  EXPECT_EQ(stats.thrash_evictions, 0u);
  EXPECT_GE(provider.slicer().quantum(0), 60.0);
  // Thrash avoidance keeps every paid swap within the thrash fraction of
  // the (widened) quantum — the ISSUE's 2x-oversubscription bound.
  EXPECT_LE(stats.max_swap_per_quantum,
            0.5 * provider.slicer().quantum(0) + 1e-9);
  EXPECT_EQ(provider.running_jobs(), 2u);
}

TEST_F(TimesliceSharingTest, ThrashEvictionAtMaxQuantum) {
  make_coordinator();
  // A 40 GB rotation over a 0.25 GB/s host link swaps for 160 s, more than
  // half of even the widest (240 s) quantum: widening cannot help, so the
  // thrash must evict.
  auto& provider = add_agent(
      hw::with_timeslicing(hw::workstation_3090("ws-0"), 2,
                           /*oversub_ratio=*/2.0, /*host_swap_gbps=*/0.25));
  ASSERT_TRUE(coordinator_->submit(session("a", 2.0, 20.0)).is_ok());
  ASSERT_TRUE(coordinator_->submit(session("b", 2.0, 20.0)).is_ok());
  env_.run_until(env_.now() + util::minutes(5));
  const agent::TimesliceStats& stats = provider.timeslice_stats();
  EXPECT_GE(stats.thrash_evictions, 1u);
  // The survivor holds the device alone — no more rotations, no more swap.
  EXPECT_EQ(provider.running_jobs(), 1u);
  EXPECT_EQ(nodes_[0]->gpu(0).holder_count(), 1);
  EXPECT_EQ(nodes_[0]->gpu(0).resident(), provider.slicer().resident(0));
}

TEST_F(TimesliceSharingTest, TrainingProgressConservedUnderRotation) {
  make_coordinator();
  add_agent(hw::with_timeslicing(hw::workstation_3090("ws-0"), 4));
  // Two low-duty-cycle shareable training jobs (0.05 h = 180 s reference):
  // adaptive_sharing sends both to time-slice seats; they accrue progress
  // only while resident, so each needs >= 180 s of residency to finish.
  for (const char* id : {"train-a", "train-b"}) {
    workload::JobSpec job = workload::make_training_job(
        id, workload::cnn_small(), 0.05, "nlp", env_.now());
    job.requirements.shareable = true;
    job.requirements.duty_cycle = 0.3;
    ASSERT_TRUE(coordinator_->submit(std::move(job)).is_ok());
  }
  env_.run_until(env_.now() + util::minutes(30));
  for (const char* id : {"train-a", "train-b"}) {
    const JobRecord* record = coordinator_->job(id);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->phase, JobPhase::kCompleted) << id;
    EXPECT_EQ(record->tenancy, hw::Tenancy::kTimeslice);
    // Progress conservation: a rotating tenant cannot beat full-device
    // speed (3090 speed factor = 1.0), so elapsed >= reference duration.
    EXPECT_GE(record->completed_at - record->first_dispatched_at,
              record->spec.reference_duration - 1e-6)
        << id;
  }
  // Two tenants rotating through 2 x 180 s of work: the pair takes at
  // least the serialized compute time.
  const JobRecord* a = coordinator_->job("train-a");
  const JobRecord* b = coordinator_->job("train-b");
  EXPECT_GE(std::max(a->completed_at, b->completed_at) -
                std::min(a->first_dispatched_at, b->first_dispatched_at),
            2 * 180.0 - 1e-6);
}

TEST_F(TimesliceSharingTest, RandomizedInvariantSweep) {
  make_coordinator();
  add_agent(hw::with_timeslicing(hw::workstation_3090("ws-0"), 4));
  add_agent(hw::with_timeslicing(hw::workstation_3090("ws-1"), 3));
  auto rng = env_.fork_rng("timeslice-sweep");
  // A churning population of sessions with random working sets and
  // durations, submitted over time.
  int next = 0;
  for (int round = 0; round < 12; ++round) {
    const double working_set = 4.0 + static_cast<double>(rng.next_u64() % 9);
    const double hours = 0.05 + 0.01 * static_cast<double>(rng.next_u64() % 10);
    ASSERT_TRUE(coordinator_
                    ->submit(session("sweep-" + std::to_string(next++), hours,
                                     working_set))
                    .is_ok());
    // Sweep invariants at randomized points between submissions.
    const int steps = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int s = 0; s < steps; ++s) {
      env_.run_until(env_.now() + 20.0);
      for (const auto& node : nodes_) {
        const int seats = node->seats_per_gpu(hw::Tenancy::kTimeslice);
        const double cap =
            node->spec().timeslice_oversub_ratio * node->gpu(0).spec().memory_gb;
        for (std::size_t g = 0; g < node->gpu_count(); ++g) {
          const hw::GpuDevice& gpu = node->gpu(g);
          if (!gpu.held_as(hw::Tenancy::kTimeslice)) continue;
          // Residency exclusivity: exactly one resident, and it is a tenant.
          EXPECT_FALSE(gpu.resident().empty());
          EXPECT_TRUE(gpu.holds(gpu.resident()));
          // Seat-count and oversubscription bounds.
          EXPECT_LE(gpu.holder_count(), seats);
          EXPECT_LE(gpu.tenant_memory_total_gb(), cap + 1e-9);
          // Only the resident working set occupies device VRAM.
          EXPECT_LE(gpu.memory_used_gb(), gpu.spec().memory_gb + 1e-9);
        }
      }
      expect_capacity_matches_rescan(coordinator_->directory(), "sweep");
    }
  }
  env_.run_until(env_.now() + util::hours(1));
  // Progress conservation: sessions are wall-clock; none may finish early.
  int completed = 0;
  for (int i = 0; i < next; ++i) {
    const std::string id = "sweep-" + std::to_string(i);
    const JobRecord* record = coordinator_->job(id);
    ASSERT_NE(record, nullptr) << id;
    if (record->phase != JobPhase::kCompleted) continue;
    ++completed;
    EXPECT_GE(record->completed_at - record->first_dispatched_at,
              record->spec.reference_duration - 1e-6)
        << id;
  }
  EXPECT_GT(completed, 0);
}

}  // namespace
}  // namespace gpunion::sched
