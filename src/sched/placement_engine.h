// Placement engine: eligibility + strategy-driven node selection.
//
// Carved out of the coordinator so that the scheduling pass is a pure
// function of the indexed ClusterView, the platform policy and the
// configured PlacementStrategy.  The coordinator keeps only queue/dispatch
// mechanics; everything about *where* a job lands lives here.
//
// Shared placement: each pass asks for one Tenancy mode.  When the policy
// enables GPU sharing and the strategy wants a shared mode for the job, the
// engine tries a time-slice seat (nvshare-style rotating residency, full
// memory per tenant) first, then a spatial fractional slot, and only then
// falls back to a whole-device allocation — three points on the
// isolation/utilization trade-off.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/directory.h"
#include "sched/policy.h"
#include "sched/reliability.h"
#include "sched/strategies.h"
#include "workload/job.h"

namespace gpunion::sched {

/// Where (and how) one job should run.
struct PlacementDecision {
  const NodeInfo* node = nullptr;
  /// Whole GPUs, a fractional slot, or a time-slice seat (full memory,
  /// rotating residency per quantum).
  hw::Tenancy tenancy = hw::Tenancy::kWhole;
};

/// Hard eligibility for a whole-GPU placement: status/accepting/capacity/
/// compatibility plus the reliability degradation rule.
bool node_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   bool cross_group_sharing,
                   const ReliabilityPredictor& reliability, util::SimTime now,
                   bool enforce_degradation);

/// Hard eligibility for a seat of shared `mode`: the mode on at the node, a
/// single-GPU shareable job whose footprint in the mode fits the
/// per-tenant memory cap (a fractional slot's cap; device VRAM for a
/// time-sliced working set), and a seat (or a free GPU to open into the
/// mode) available.
bool seat_eligible(const NodeInfo& node, const workload::JobSpec& job,
                   hw::Tenancy mode, bool cross_group_sharing);

class PlacementEngine {
 public:
  /// Unknown strategy names fall back to round_robin (§3.5 default).
  PlacementEngine(Directory& directory,
                  const ReliabilityPredictor& reliability,
                  const PlatformPolicy& policy,
                  const std::string& strategy_name);

  /// One placement decision for `job`.  Does not reserve capacity — that is
  /// the caller's (so a rejected dispatch can be retried elsewhere).
  /// `preferred_node` wins whenever it is eligible (migrate-back affinity).
  std::optional<PlacementDecision> place(const workload::JobSpec& job,
                                         const std::string& preferred_node,
                                         util::SimTime now);

  /// Existence check under EXACTLY the gating place() applies (policy,
  /// strategy sharing preference, reliability degradation): could this
  /// campus place the job right now?  The federation gateway uses it to
  /// decide what to forward out and what to admit in — re-deriving the
  /// predicates there would drift from real placement.  Early-exits on the
  /// first eligible node (O(1) on a fleet with free capacity) instead of
  /// materializing the candidate vector.
  bool any_eligible(const workload::JobSpec& job, util::SimTime now);

  /// Nodes the engine's queries have examined (delegates to the view's
  /// probe counter; regression hook for the any_eligible early exit).
  std::uint64_t candidates_examined() const {
    return directory_.view().candidates_examined();
  }

  PlacementStrategy& strategy() { return *strategy_; }
  const PlacementStrategy& strategy() const { return *strategy_; }
  std::string_view strategy_name() const { return strategy_->name(); }

 private:
  /// True when place() runs a `mode` pass for `job`: always for whole
  /// GPUs, for a shared mode when the policy shares and the strategy wants
  /// the mode.
  bool tries(hw::Tenancy mode, const workload::JobSpec& job) const;
  /// The index query of a `mode` pass for `job`.
  ClusterView::Query query(const workload::JobSpec& job,
                           hw::Tenancy mode) const;
  /// Full eligibility for a `mode` pass; `degrade` adds the degradation
  /// rule (the strategy's enforce_degradation(), read once per query).
  bool eligible(const NodeInfo& node, const workload::JobSpec& job,
                hw::Tenancy mode, util::SimTime now, bool degrade) const;
  std::vector<const NodeInfo*> eligible_candidates(
      const workload::JobSpec& job, util::SimTime now, hw::Tenancy mode);

  Directory& directory_;
  const ReliabilityPredictor& reliability_;
  const PlatformPolicy& policy_;
  std::unique_ptr<PlacementStrategy> strategy_;
};

}  // namespace gpunion::sched
