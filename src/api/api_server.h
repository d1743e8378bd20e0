// Tenant-facing request plane.
//
// The front door the ROADMAP's "millions of users" north star needs: jobs
// no longer appear inside the trusted core via Coordinator::submit — they
// arrive at an ApiServer that knows about TENANTS.  Per region (each
// Platform fronts its own; remote-admitted federation jobs bypass it,
// their home region already charged the tenant), the server provides:
//
//  - token-bucket admission rate-limiting with EXPLICIT backpressure: an
//    overloaded submit is rejected with kOverloaded and a retry-after
//    hint instead of queueing unboundedly (nvshare's thin-client protocol
//    shape: clients are expected to back off and retry);
//  - one bounded FIFO queue per tenant, drained into the scheduler core
//    in dominant-resource-fairness order (api/drf.h) so a heavy-tailed
//    tenant population shares the campus by DRF dominant share, not by
//    submission rate;
//  - per-tenant quotas: max in-flight jobs in the core and a cumulative
//    GPU-seconds budget (quota-exceeded jobs are rejected at drain time,
//    so accepted == dispatched + queued + quota_dropped + cancelled
//    holds exactly — the conservation law the invariant harness pins);
//  - a bounded core working set: queues only drain while total in-flight
//    demand fits within capacity x core_load_factor, keeping the
//    coordinator's tables O(campus) instead of O(everything ever
//    submitted) while leaving enough pending pressure for federation
//    overflow forwarding;
//  - batched submit/status, with ONE write-behind group commit amortized
//    across each drained burst (the PR 4 ledger machinery);
//  - a trace root (obs::stage::kApiAdmit) on every accepted submit, so
//    PR 8 causal traces start at the tenant edge, not at the coordinator.
//
// Determinism: submits are synchronous calls from event callbacks (tests
// and benches schedule them); draining runs from a periodic timer plus an
// immediate threshold drain when a burst fills a batch — mirroring the
// ledger's dual interval/threshold trigger.  Everything uses ordered maps,
// so a seed replays bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/drf.h"
#include "api/token_bucket.h"
#include "monitor/metrics.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "util/stats.h"
#include "util/status.h"
#include "workload/job.h"

namespace gpunion::db {
class ShardedDatabase;
}
namespace gpunion::sched {
class Coordinator;
}

namespace gpunion::api {

/// Per-tenant admission quotas.
struct TenantQuota {
  /// Max jobs this tenant may have live in the scheduler core at once.
  int max_in_flight = 64;
  /// Cumulative modeled GPU-seconds the tenant may dispatch (estimated as
  /// gpu_count x reference_duration at drain time); infinity = unmetered.
  double gpu_seconds_budget = std::numeric_limits<double>::infinity();
  /// Bound on the tenant's API-side queue; beyond it submits are rejected
  /// kOverloaded (backpressure, not buffering).
  std::size_t max_queued = 256;
  /// DRF weight (entitlement multiplier).
  double weight = 1.0;
};

struct ApiConfig {
  /// Platform wiring: construct and start an ApiServer for the campus.
  bool enabled = false;
  /// Token-bucket admission limit across all tenants (requests/sec, burst).
  double admission_rate = 500.0;
  double admission_burst = 1000.0;
  TenantQuota default_quota;
  /// Per-tenant overrides of default_quota.
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Drain cadence; a threshold drain also fires as soon as drain_batch
  /// jobs are queued, so burst latency is batch-bound, not interval-bound.
  util::Duration drain_interval = 0.25;
  /// Max dispatches per drain pass — the burst one ledger group commit
  /// amortizes over.
  std::size_t drain_batch = 64;
  /// In-flight demand may reach capacity x this factor before queues hold
  /// (>1 keeps the coordinator backlogged enough to overflow-forward).
  double core_load_factor = 2.0;
  /// Cap on per-tenant gauge cardinality in the metric registry (top-K by
  /// accepted count; the aggregate families always cover everyone).
  std::size_t metrics_top_tenants = 16;
};

enum class AdmitOutcome {
  kAccepted,       // queued (or already dispatched by a threshold drain)
  kOverloaded,     // rate limit or queue bound; retry_after is set
  kQuotaExceeded,  // GPU-seconds budget exhausted
  kRejected,       // invalid spec / duplicate id
};

struct SubmitResult {
  AdmitOutcome outcome = AdmitOutcome::kRejected;
  util::Status status;
  /// kOverloaded only: sim-time the client should wait before retrying.
  util::Duration retry_after = 0;

  bool accepted() const { return outcome == AdmitOutcome::kAccepted; }
};

/// Tenant-visible job state (the status protocol's reply).
struct JobStatusView {
  std::string id;
  bool known = false;
  /// "queued_api" while still in the request plane, then the coordinator
  /// phase name, then "archived"/"departed" once it left the local books.
  std::string phase;
  double progress = 0.0;
};

struct TenantCounters {
  std::uint64_t submitted = 0;           // requests seen
  std::uint64_t accepted = 0;            // entered the tenant queue
  std::uint64_t dispatched = 0;          // handed to the scheduler core
  std::uint64_t rejected_overloaded = 0; // token bucket or queue bound
  std::uint64_t rejected_quota = 0;      // budget exhausted at submit
  std::uint64_t rejected_invalid = 0;    // malformed / duplicate id
  std::uint64_t quota_dropped = 0;       // budget exhausted at drain
  std::uint64_t dispatch_rejected = 0;   // core refused (id collision etc.)
  std::uint64_t cancelled_queued = 0;    // cancelled while still queued here
  std::uint64_t completed = 0;           // dispatched jobs seen kCompleted
  std::uint64_t departed = 0;            // left the local books (forwarded)
  double gpu_seconds_charged = 0;
};

struct ApiStats {
  TenantCounters totals;
  std::uint64_t drains = 0;
  std::uint64_t group_commits = 0;  // ledger flushes amortized over bursts
  std::uint64_t batch_submits = 0;
  std::uint64_t batch_status = 0;
  /// High-water marks (the backpressure evidence: bounded under overload).
  std::size_t max_total_queued = 0;
  std::size_t max_tenant_queued = 0;
};

class ApiServer {
 public:
  /// Dispatch sink: (spec, start_progress, trace) -> core accept/reject.
  /// Defaults to Coordinator::submit on the attached coordinator; benches
  /// inject counting stubs to measure the request plane alone.
  using DispatchFn = std::function<util::Status(
      workload::JobSpec, double, obs::TraceContext)>;

  ApiServer(sim::Environment& env, ApiConfig config);
  ~ApiServer();

  ApiServer(const ApiServer&) = delete;
  ApiServer& operator=(const ApiServer&) = delete;

  // --- Wiring (Platform does this; benches pick what they need) ------------
  void attach_coordinator(sched::Coordinator* coordinator);
  /// Enables the amortized group commit after each drained burst.
  void attach_database(db::ShardedDatabase* database);
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_actor(std::string actor) { actor_ = std::move(actor); }
  /// Campus capacity the DRF shares are measured against.
  void set_capacity(const ResourceVector& capacity);
  /// Replaces the dispatch sink (standalone benches).
  void set_dispatch(DispatchFn fn) { dispatch_ = std::move(fn); }
  /// Test hook: observes every (tenant, job id) dispatch, in drain order.
  void set_dispatch_observer(
      std::function<void(const std::string&, const std::string&)> fn) {
    dispatch_observer_ = std::move(fn);
  }

  /// Starts the periodic drain timer.
  void start();

  // --- Tenant protocol -----------------------------------------------------
  SubmitResult submit(const std::string& tenant, workload::JobSpec job);
  /// Batched submit: per-job results; the whole burst shares one threshold
  /// drain (and thus one group commit) instead of one each.
  std::vector<SubmitResult> submit_batch(const std::string& tenant,
                                         std::vector<workload::JobSpec> jobs);
  /// Cancels a queued-or-dispatched job the tenant owns.
  util::Status cancel(const std::string& tenant, const std::string& job_id);
  JobStatusView status(const std::string& tenant,
                       const std::string& job_id) const;
  std::vector<JobStatusView> status_batch(const std::string& tenant,
                                          const std::vector<std::string>& ids);

  // --- Draining ------------------------------------------------------------
  /// One bounded drain pass (reconcile releases, then DRF-ordered dispatch
  /// up to drain_batch, then one group commit).  Runs from the timer; public
  /// so tests and benches can force passes.
  void drain();
  /// Drains until no pass makes progress (tests: reach quiescence).
  void drain_to_quiescence();

  // --- Introspection -------------------------------------------------------
  const ApiConfig& config() const { return config_; }
  const TenantQuota& quota_of(const std::string& tenant) const;
  const TenantCounters& tenant_counters(const std::string& tenant) const;
  const ApiStats& stats() const { return stats_; }
  std::size_t queued(const std::string& tenant) const {
    return queue_.queued(tenant);
  }
  std::size_t total_queued() const { return queue_.total_queued(); }
  int in_flight(const std::string& tenant) const;
  double dominant_share_of(const std::string& tenant) const {
    return queue_.dominant_share_of(tenant);
  }
  const DrfQueue& drf_queue() const { return queue_; }
  /// Tenant names seen so far, in name order.
  std::vector<std::string> tenants() const;
  /// Admission latency samples (accept -> dispatch), modeled seconds.
  const util::SampleSet& admission_latency() const {
    return admission_latency_;
  }

  /// Copies per-tenant gauges (top-K by accepted) + aggregate counters into
  /// `registry` (families gpunion_api_*).  Called from the owning
  /// platform's metrics refresh.
  void publish_metrics(monitor::MetricRegistry& registry) const;

 private:
  struct TenantState {
    TenantQuota quota;
    TenantCounters counters;
    /// Dispatched and still live in the core: id -> charged demand.
    std::map<std::string, ResourceVector> live;
  };

  TenantState& tenant_state(const std::string& tenant);
  /// Releases core usage for jobs that left the local coordinator books.
  void reconcile();
  void note_queue_depths(const std::string& tenant);
  void schedule_threshold_drain();

  sim::Environment& env_;
  ApiConfig config_;
  obs::Tracer* tracer_ = nullptr;
  sched::Coordinator* coordinator_ = nullptr;
  db::ShardedDatabase* database_ = nullptr;
  DispatchFn dispatch_;
  std::function<void(const std::string&, const std::string&)>
      dispatch_observer_;
  std::string actor_ = "api";

  TokenBucket bucket_;
  DrfQueue queue_;
  std::map<std::string, TenantState> tenants_;
  /// Tenants with at least one live (dispatched, unreleased) job — the
  /// only ones reconcile() must visit.  Stays O(campus) while the tenant
  /// map grows with everyone ever seen.
  std::set<std::string> live_tenants_;
  /// Job id -> owning tenant, for status/cancel auth and duplicate checks.
  std::map<std::string, std::string> owner_of_;
  /// Jobs that left the request plane without a core record to point at
  /// (quota_dropped / cancelled_api / departed / sink-mode dispatched):
  /// status() serves this terminal phase string.
  std::map<std::string, std::string> retired_;
  ApiStats stats_;
  util::SampleSet admission_latency_;
  std::unique_ptr<sim::PeriodicTimer> drain_timer_;
  bool threshold_drain_pending_ = false;
  bool started_ = false;
};

}  // namespace gpunion::api
