#include "sched/placement_engine.h"

#include <algorithm>
#include <array>

#include "util/logging.h"

namespace gpunion::sched {

namespace {

/// Degradation rule (§3.2): long training jobs stay off low-score nodes.
bool degradation_ok(const NodeInfo& node, const workload::JobSpec& job,
                    const ReliabilityPredictor& reliability,
                    util::SimTime now) {
  if (job.type != workload::JobType::kTraining) return true;
  const double score = reliability.score(node.machine_id, now);
  return job.reference_duration / 3600.0 <=
         ReliabilityPredictor::max_job_hours(score);
}

/// Pass order: time-slice seats, then fractional slots, then whole GPUs.
constexpr std::array<hw::Tenancy, 3> kPassOrder = {
    hw::Tenancy::kTimeslice, hw::Tenancy::kFractional, hw::Tenancy::kWhole};

}  // namespace

bool node_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   bool cross_group_sharing,
                   const ReliabilityPredictor& reliability, util::SimTime now,
                   bool enforce_degradation) {
  if (!node.schedulable()) return false;
  if (!cross_group_sharing && node.owner_group != job.owner_group) {
    return false;
  }
  const auto& req = job.requirements;
  if (node.free_gpus < req.gpu_count) return false;
  if (node.gpu_memory_gb < req.gpu_memory_gb) return false;
  if (node.compute_capability < req.min_compute_capability) return false;
  if (enforce_degradation && !degradation_ok(node, job, reliability, now)) {
    return false;
  }
  return true;
}

bool seat_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   hw::Tenancy mode, bool cross_group_sharing) {
  if (!node.schedulable()) return false;
  if (!cross_group_sharing && node.owner_group != job.owner_group) {
    return false;
  }
  const auto& req = job.requirements;
  if (!req.shareable || req.gpu_count != 1) return false;
  if (workload::footprint_gb(job, mode) > node.tenant_memory_cap_gb(mode)) {
    return false;
  }
  if (node.compute_capability < req.min_compute_capability) return false;
  return node.has_seat(mode);
}

PlacementEngine::PlacementEngine(Directory& directory,
                                 const ReliabilityPredictor& reliability,
                                 const PlatformPolicy& policy,
                                 const std::string& strategy_name)
    : directory_(directory),
      reliability_(reliability),
      policy_(policy),
      strategy_(PlacementStrategyFactory::instance().create(strategy_name)) {
  if (strategy_ == nullptr) {
    GPUNION_WLOG("placement") << "unknown placement strategy '"
                              << strategy_name
                              << "'; falling back to round_robin";
    strategy_ = PlacementStrategyFactory::instance().create(
        std::string(kRoundRobin));
  }
}

bool PlacementEngine::tries(hw::Tenancy mode,
                            const workload::JobSpec& job) const {
  return mode == hw::Tenancy::kWhole ||
         (policy_.gpu_sharing && strategy_->wants(mode, job));
}

ClusterView::Query PlacementEngine::query(const workload::JobSpec& job,
                                          hw::Tenancy mode) const {
  const auto& req = job.requirements;
  return ClusterView::Query{
      mode, req.gpu_count, workload::footprint_gb(job, mode),
      req.min_compute_capability,
      policy_.cross_group_sharing ? nullptr : &job.owner_group};
}

bool PlacementEngine::eligible(const NodeInfo& node,
                               const workload::JobSpec& job, hw::Tenancy mode,
                               util::SimTime now, bool degrade) const {
  if (mode == hw::Tenancy::kWhole) {
    return node_eligible(node, job, policy_.cross_group_sharing, reliability_,
                         now, degrade);
  }
  return seat_eligible(node, job, mode, policy_.cross_group_sharing) &&
         (!degrade || degradation_ok(node, job, reliability_, now));
}

std::vector<const NodeInfo*> PlacementEngine::eligible_candidates(
    const workload::JobSpec& job, util::SimTime now, hw::Tenancy mode) {
  auto candidates = directory_.view().candidates(query(job, mode));
  // The view pre-filters on capacity/compatibility/group; re-check the full
  // predicate (including the degradation rule) so index staleness bugs can
  // never place a job somewhere invalid.
  const bool degrade = strategy_->enforce_degradation();
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [&](const NodeInfo* node) {
                       return !eligible(*node, job, mode, now, degrade);
                     }),
      candidates.end());
  return candidates;
}

bool PlacementEngine::any_eligible(const workload::JobSpec& job,
                                   util::SimTime now) {
  // Existence only: the same passes and index walks as place(), stopping at
  // the first node passing the FULL placement predicate instead of
  // materializing the candidate vector.  On a fleet with free capacity this
  // examines O(1) nodes — the gateway calls this per admission and per
  // forward-scan probe.
  const bool degrade = strategy_->enforce_degradation();
  for (const hw::Tenancy mode : kPassOrder) {
    if (!tries(mode, job)) continue;
    auto pred = [&](const NodeInfo& node) {
      return eligible(node, job, mode, now, degrade);
    };
    if (directory_.view().first_candidate(query(job, mode), pred) !=
        nullptr) {
      return true;
    }
  }
  return false;
}

std::optional<PlacementDecision> PlacementEngine::place(
    const workload::JobSpec& job, const std::string& preferred_node,
    util::SimTime now) {
  PlacementContext context{&reliability_, now};
  for (const hw::Tenancy mode : kPassOrder) {
    if (!tries(mode, job)) continue;
    auto candidates = eligible_candidates(job, now, mode);
    if (candidates.empty()) continue;
    if (!preferred_node.empty()) {
      for (const NodeInfo* node : candidates) {
        if (node->machine_id == preferred_node) {
          return PlacementDecision{node, mode};
        }
      }
    }
    if (const NodeInfo* pick =
            strategy_->select(candidates, job, context, mode)) {
      return PlacementDecision{pick, mode};
    }
  }
  return std::nullopt;
}

}  // namespace gpunion::sched
