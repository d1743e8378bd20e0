#include "sched/strategies.h"

#include <algorithm>

namespace gpunion::sched {

PlacementStrategyFactory& PlacementStrategyFactory::instance() {
  static PlacementStrategyFactory factory;
  return factory;
}

void PlacementStrategyFactory::register_strategy(std::string name,
                                                 Builder builder) {
  builders_[std::move(name)] = std::move(builder);
}

std::unique_ptr<PlacementStrategy> PlacementStrategyFactory::create(
    const std::string& name) const {
  auto it = builders_.find(name);
  return it == builders_.end() ? nullptr : it->second();
}

std::vector<std::string> PlacementStrategyFactory::names() const {
  std::vector<std::string> out;
  out.reserve(builders_.size());
  for (const auto& [name, builder] : builders_) out.push_back(name);
  return out;  // std::map iteration is sorted
}

namespace {

/// Pack: tightest VRAM fit keeps 80 GB A100s free for jobs that need them.
const NodeInfo* best_vram_fit(const std::vector<const NodeInfo*>& candidates,
                              const workload::JobSpec& job) {
  if (candidates.empty()) return nullptr;
  return *std::min_element(
      candidates.begin(), candidates.end(),
      [&job](const NodeInfo* a, const NodeInfo* b) {
        const double slack_a = a->gpu_memory_gb - job.requirements.gpu_memory_gb;
        const double slack_b = b->gpu_memory_gb - job.requirements.gpu_memory_gb;
        if (slack_a != slack_b) return slack_a < slack_b;
        return a->machine_id < b->machine_id;
      });
}

/// Seat packing: in a shared `mode` pass, the node with the fewest free
/// seats on devices already open in the mode (keep open devices full and
/// whole GPUs free for training); with no open seat anywhere, and in a
/// whole pass, the tightest VRAM fit.  nullptr when the list is empty.
const NodeInfo* pack_seats(const std::vector<const NodeInfo*>& candidates,
                           const workload::JobSpec& job, hw::Tenancy mode) {
  if (mode == hw::Tenancy::kWhole) return best_vram_fit(candidates, job);
  const NodeInfo* tightest = nullptr;
  for (const NodeInfo* node : candidates) {
    const int free = node->free_seats[mode];
    if (free <= 0) continue;
    if (tightest == nullptr || free < tightest->free_seats[mode] ||
        (free == tightest->free_seats[mode] &&
         node->machine_id < tightest->machine_id)) {
      tightest = node;
    }
  }
  if (tightest != nullptr) return tightest;
  // No open seat anywhere: open a device on the node whose VRAM the tenant
  // wastes least.
  return best_vram_fit(candidates, job);
}

/// Fairness: rotate across eligible providers.
class RoundRobinStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kRoundRobin; }

  const NodeInfo* select(const std::vector<const NodeInfo*>& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         hw::Tenancy mode) override {
    (void)job;
    (void)context;
    (void)mode;
    if (candidates.empty()) return nullptr;
    return candidates[cursor_++ % candidates.size()];
  }

 private:
  std::size_t cursor_ = 0;
};

/// Spread: most available capacity first (absolute free GPUs), so big idle
/// servers absorb work before single-GPU workstations.
class LeastLoadedStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kLeastLoaded; }

  const NodeInfo* select(const std::vector<const NodeInfo*>& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         hw::Tenancy mode) override {
    (void)job;
    (void)context;
    (void)mode;
    if (candidates.empty()) return nullptr;
    return *std::max_element(candidates.begin(), candidates.end(),
                             [](const NodeInfo* a, const NodeInfo* b) {
                               if (a->free_gpus != b->free_gpus) {
                                 return a->free_gpus < b->free_gpus;
                               }
                               return a->machine_id > b->machine_id;
                             });
  }
};

class BestFitStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kBestFit; }

  const NodeInfo* select(const std::vector<const NodeInfo*>& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         hw::Tenancy mode) override {
    (void)context;
    (void)mode;
    return best_vram_fit(candidates, job);
  }
};

/// Prefer steady providers (volatility prediction, §3.2) and enforce the
/// degradation rule during eligibility.
class ReliabilityAwareStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kReliabilityAware; }
  bool enforce_degradation() const override { return true; }

  const NodeInfo* select(const std::vector<const NodeInfo*>& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         hw::Tenancy mode) override {
    (void)job;
    (void)mode;
    if (candidates.empty()) return nullptr;
    const ReliabilityPredictor* reliability = context.reliability;
    const util::SimTime now = context.now;
    return *std::max_element(
        candidates.begin(), candidates.end(),
        [reliability, now](const NodeInfo* a, const NodeInfo* b) {
          if (reliability != nullptr) {
            const double score_a = reliability->score(a->machine_id, now);
            const double score_b = reliability->score(b->machine_id, now);
            if (score_a != score_b) return score_a < score_b;
          }
          if (a->free_gpus != b->free_gpus) {
            return a->free_gpus < b->free_gpus;
          }
          return a->machine_id > b->machine_id;
        });
  }
};

/// Fractional packing: shareable jobs go to fractional slots, tightest
/// first — prefer the node whose shared GPUs have the fewest free slots
/// left (keep shared devices hot, keep whole devices free for training);
/// open a fresh shared GPU only when no partially-filled one fits, picking
/// the tightest VRAM fit for it.  Whole-GPU jobs fall back to best-fit.
class PackedSharingStrategy : public PlacementStrategy {
 public:
  std::string_view name() const override { return kPackedSharing; }

  bool wants(hw::Tenancy mode, const workload::JobSpec& job) const override {
    return mode == hw::Tenancy::kFractional && shareable_single_gpu(job);
  }

  const NodeInfo* select(const std::vector<const NodeInfo*>& candidates,
                         const workload::JobSpec& job,
                         const PlacementContext& context,
                         hw::Tenancy mode) override {
    (void)context;
    return pack_seats(candidates, job, mode);
  }

 protected:
  static bool shareable_single_gpu(const workload::JobSpec& job) {
    return job.requirements.shareable && job.requirements.gpu_count == 1;
  }
};

const PlacementStrategyRegistrar<RoundRobinStrategy> round_robin_registrar(
    "round_robin");
const PlacementStrategyRegistrar<LeastLoadedStrategy> least_loaded_registrar(
    "least_loaded");
const PlacementStrategyRegistrar<BestFitStrategy> best_fit_registrar(
    "best_fit");
const PlacementStrategyRegistrar<ReliabilityAwareStrategy>
    reliability_aware_registrar("reliability_aware");
/// Duty-cycle-adaptive sharing: a shareable single-GPU job whose duty
/// cycle is bursty (interactive sessions idle ~65% of the time) wastes a
/// dedicated slice — time-slice seats let several such tenants share one
/// device at full memory each, rotating residency per quantum.  Steady
/// shareable jobs keep the spatial fractional path (a time quantum would
/// serialize them), which is also the fallback when no seat exists; every
/// pass packs like packed_sharing, and whole-GPU jobs fall back to
/// best-fit.
class AdaptiveSharingStrategy : public PackedSharingStrategy {
 public:
  std::string_view name() const override { return kAdaptiveSharing; }

  bool wants(hw::Tenancy mode, const workload::JobSpec& job) const override {
    if (!shareable_single_gpu(job)) return false;
    return mode == hw::Tenancy::kFractional ||
           (mode == hw::Tenancy::kTimeslice &&
            workload::resolved_duty_cycle(job) < 0.6);
  }
};

const PlacementStrategyRegistrar<PackedSharingStrategy>
    packed_sharing_registrar("packed_sharing");
const PlacementStrategyRegistrar<AdaptiveSharingStrategy>
    adaptive_sharing_registrar("adaptive_sharing");

}  // namespace

}  // namespace gpunion::sched
