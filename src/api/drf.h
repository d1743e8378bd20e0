// Dominant-resource-fairness queueing across tenants.
//
// The request plane holds one FIFO queue per tenant and drains them into
// the scheduler core in DRF order (Ghodsi et al., NSDI'11): each tenant's
// dominant share is the largest fraction of any one cluster resource its
// in-flight jobs hold, and every drain step grants the head-of-queue job
// of the backlogged tenant with the SMALLEST (weighted) dominant share.
// Progressive filling in discrete job-sized steps — the classic properties
// (sharing incentive, strategy-proofness up to one job, envy-freeness up
// to one job) carry over and are pinned by tests/api/drf_property_test.cpp.
//
// The queue is deliberately self-contained (no sim, no coordinator) so the
// property tests exercise the allocator in isolation.
//
// Scale: the tenant map grows with every tenant ever seen (a million-user
// population), so nothing on the hot paths may scan it.  A backlogged-only
// index drives pop_next (O(backlogged), not O(tenants ever)), and the
// total usage / total queued aggregates are maintained incrementally.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/time.h"
#include "workload/job.h"

namespace gpunion::api {

/// The two resource axes DRF balances campus-wide: GPUs and aggregate VRAM.
/// (The pair the paper's placement constraints already reason about —
/// gpu_count x gpu_memory_gb — so a memory-hungry tenant and a GPU-hungry
/// tenant are dominated by different axes, which is the whole point of DRF.)
struct ResourceVector {
  double gpus = 0.0;
  double memory_gb = 0.0;

  ResourceVector& operator+=(const ResourceVector& o) {
    gpus += o.gpus;
    memory_gb += o.memory_gb;
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& o) {
    gpus -= o.gpus;
    memory_gb -= o.memory_gb;
    return *this;
  }
  /// Elementwise `this + o <= cap * factor` (the core-working-set gate).
  bool fits(const ResourceVector& o, const ResourceVector& cap,
            double factor) const {
    return gpus + o.gpus <= cap.gpus * factor + 1e-9 &&
           memory_gb + o.memory_gb <= cap.memory_gb * factor + 1e-9;
  }
};

/// Demand vector of one job: gpu_count GPUs, gpu_count x gpu_memory_gb VRAM.
ResourceVector demand_of(const workload::JobSpec& spec);

/// Weighted dominant share of `usage` against `capacity`: max over resources
/// of usage_r / capacity_r, divided by the tenant weight.  Zero-capacity
/// axes are ignored; zero usage is share 0.
double dominant_share(const ResourceVector& usage,
                      const ResourceVector& capacity, double weight = 1.0);

/// Per-tenant FIFO queues drained in dominant-resource-fairness order.
class DrfQueue {
 public:
  struct Item {
    workload::JobSpec spec;
    ResourceVector demand;
    util::SimTime enqueued_at = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span = 0;
  };

  explicit DrfQueue(ResourceVector capacity = {1e18, 1e18});

  void set_capacity(const ResourceVector& capacity) { capacity_ = capacity; }
  const ResourceVector& capacity() const { return capacity_; }
  /// DRF weight of a tenant (default 1.0); larger = entitled to more.
  void set_weight(const std::string& tenant, double weight);
  double weight(const std::string& tenant) const;

  void push(const std::string& tenant, Item item);

  /// Pops the head item of the eligible backlogged tenant with the minimum
  /// weighted dominant share (ties broken by tenant name, so a seed replays
  /// bit-identically).  `eligible` filters tenants (quota gates);
  /// empty = all eligible.  Does NOT charge usage — the caller charges after
  /// a successful dispatch.
  std::optional<std::pair<std::string, Item>> pop_next(
      const std::function<bool(const std::string&, const Item&)>& eligible =
          {});

  /// Removes a queued item by job id; false when not queued.
  bool remove(const std::string& tenant, const std::string& job_id);

  void charge(const std::string& tenant, const ResourceVector& r);
  void release(const std::string& tenant, const ResourceVector& r);

  double dominant_share_of(const std::string& tenant) const;
  const ResourceVector& usage_of(const std::string& tenant) const;
  /// O(1): maintained incrementally by charge/release.
  const ResourceVector& total_usage() const { return total_usage_; }

  std::size_t queued(const std::string& tenant) const;
  /// O(1): maintained incrementally by push/pop/remove.
  std::size_t total_queued() const { return total_queued_; }
  /// Demand of the tenant's head item (zero when not backlogged) — what
  /// the next drain pass would test against the working-set gate.
  ResourceVector head_demand(const std::string& tenant) const;
  /// Tenants with at least one queued item, in name order.
  std::vector<std::string> backlogged() const;

 private:
  struct Tenant {
    std::deque<Item> queue;
    ResourceVector usage;
    double weight = 1.0;
  };

  ResourceVector capacity_;
  std::map<std::string, Tenant> tenants_;
  /// Names of tenants with a non-empty queue; ordered, so iteration keeps
  /// the deterministic name tie-break while skipping the (unbounded) set
  /// of idle tenants.
  std::set<std::string> backlogged_;
  ResourceVector total_usage_;
  std::size_t total_queued_ = 0;
};

}  // namespace gpunion::api
