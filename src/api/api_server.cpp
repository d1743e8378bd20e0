#include "api/api_server.h"

#include <algorithm>
#include <utility>

#include "db/sharded_database.h"
#include "sched/coordinator.h"
#include "util/logging.h"

namespace gpunion::api {
namespace {

/// Cap on per-tenant gauge cardinality in the metric registry (top-K by
/// accepted count; the aggregate families always cover everyone).
constexpr std::size_t kMetricsTopTenants = 16;

/// Modeled GPU-seconds a job will charge against its tenant's budget.
double gpu_seconds_estimate(const DrfQueue::Item& item) {
  return item.demand.gpus * std::max(0.0, item.spec.reference_duration);
}

}  // namespace

ApiServer::ApiServer(sim::Environment& env, ApiConfig config)
    : env_(env),
      config_(std::move(config)),
      bucket_(config_.admission_rate, config_.admission_burst),
      queue_() {}

ApiServer::~ApiServer() = default;

void ApiServer::attach_coordinator(sched::Coordinator* coordinator) {
  coordinator_ = coordinator;
}

void ApiServer::attach_database(db::ShardedDatabase* database) {
  database_ = database;
}

void ApiServer::set_capacity(const ResourceVector& capacity) {
  queue_.set_capacity(capacity);
}

void ApiServer::start() {
  if (started_) return;
  started_ = true;
  drain_timer_ = std::make_unique<sim::PeriodicTimer>(
      env_, config_.drain_interval, [this] { drain(); });
  drain_timer_->start();
}

ApiServer::TenantState& ApiServer::tenant_state(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  TenantState state;
  auto quota = config_.tenant_quotas.find(tenant);
  state.quota =
      quota == config_.tenant_quotas.end() ? config_.default_quota : quota->second;
  auto [inserted, ok] = tenants_.emplace(tenant, std::move(state));
  queue_.set_weight(tenant, inserted->second.quota.weight);
  return inserted->second;
}

const TenantQuota& ApiServer::quota_of(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second.quota;
  auto quota = config_.tenant_quotas.find(tenant);
  return quota == config_.tenant_quotas.end() ? config_.default_quota
                                              : quota->second;
}

const TenantCounters& ApiServer::tenant_counters(
    const std::string& tenant) const {
  static const TenantCounters kZero;
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? kZero : it->second.counters;
}

int ApiServer::in_flight(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : static_cast<int>(it->second.live.size());
}

std::vector<std::string> ApiServer::tenants() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

void ApiServer::note_queue_depths(const std::string& tenant) {
  // Only the tenant just pushed to can have set a new high-water mark —
  // never rescan the full (unbounded) tenant map on the submit path.
  stats_.max_total_queued =
      std::max(stats_.max_total_queued, queue_.total_queued());
  stats_.max_tenant_queued =
      std::max(stats_.max_tenant_queued, queue_.queued(tenant));
}

void ApiServer::schedule_threshold_drain() {
  if (threshold_drain_pending_ || !started_) return;
  threshold_drain_pending_ = true;
  env_.schedule_after(0.0, [this] {
    if (threshold_drain_pending_) drain();
  });
}

SubmitResult ApiServer::submit(const std::string& tenant,
                               workload::JobSpec job) {
  const util::SimTime now = env_.now();
  TenantState& state = tenant_state(tenant);
  ++state.counters.submitted;
  ++stats_.totals.submitted;

  auto reject_invalid = [&](util::Status status) {
    ++state.counters.rejected_invalid;
    ++stats_.totals.rejected_invalid;
    return SubmitResult{AdmitOutcome::kRejected, std::move(status), 0};
  };

  if (tenant.empty() || job.id.empty())
    return reject_invalid(
        util::invalid_argument_error("tenant and job id are required"));
  if (owner_of_.contains(job.id))
    return reject_invalid(
        util::already_exists_error("job id already submitted: " + job.id));
  if (coordinator_ != nullptr && coordinator_->job(job.id) != nullptr)
    return reject_invalid(
        util::already_exists_error("job id known to the core: " + job.id));

  const ResourceVector demand = demand_of(job);
  if (!ResourceVector{}.fits(demand, queue_.capacity(), kCoreLoadFactor))
    return reject_invalid(util::resource_exhausted_error(
        "demand can never fit the campus working set"));

  // Fast budget reject: a tenant that has already burned its GPU-seconds
  // gets told so at submit time.  (Budget consumed by still-queued jobs is
  // settled at drain time — the quota_dropped path.)
  const double estimate =
      demand.gpus * std::max(0.0, job.reference_duration);
  if (state.counters.gpu_seconds_charged + estimate >
      state.quota.gpu_seconds_budget + 1e-9) {
    ++state.counters.rejected_quota;
    ++stats_.totals.rejected_quota;
    return {AdmitOutcome::kQuotaExceeded,
            util::resource_exhausted_error("gpu-seconds budget exhausted"), 0};
  }

  // Backpressure: rate limit, then the per-tenant queue bound.  Both come
  // back kOverloaded with a retry-after hint, never unbounded buffering.
  // A cost the bucket can NEVER cover (burst configured below the request
  // cost) is a permanent rejection, not a retry-forever hint.
  util::Duration retry_after = 0;
  if (!bucket_.try_take(now, 1.0, &retry_after)) {
    if (retry_after >= TokenBucket::kNeverSatisfiable) {
      return reject_invalid(util::failed_precondition_error(
          "admission burst smaller than the request cost; "
          "no retry can succeed"));
    }
    ++state.counters.rejected_overloaded;
    ++stats_.totals.rejected_overloaded;
    return {AdmitOutcome::kOverloaded,
            util::unavailable_error("admission rate limit"), retry_after};
  }
  if (queue_.queued(tenant) >= state.quota.max_queued) {
    ++state.counters.rejected_overloaded;
    ++stats_.totals.rejected_overloaded;
    // Rough time for the drain timer to make room in this tenant's queue.
    retry_after = config_.drain_interval *
                  (1.0 + static_cast<double>(queue_.queued(tenant)) /
                             std::max<std::size_t>(1, config_.drain_batch));
    return {AdmitOutcome::kOverloaded,
            util::unavailable_error("tenant queue full"), retry_after};
  }

  // Accepted: root the job's causal trace at the tenant edge.
  job.submitted_at = now;
  obs::TraceContext ctx{obs::Tracer::trace_for_job(job.id), 0};
  if (tracer_ != nullptr && tracer_->enabled())
    tracer_->record(ctx, obs::stage::kApiAdmit, actor_, now, now,
                    "tenant=" + tenant);
  ++state.counters.accepted;
  ++stats_.totals.accepted;
  owner_of_.emplace(job.id, tenant);
  queue_.push(tenant,
              {std::move(job), demand, now, ctx.trace_id, ctx.parent_span});
  note_queue_depths(tenant);
  if (queue_.total_queued() >= config_.drain_batch)
    schedule_threshold_drain();
  return {AdmitOutcome::kAccepted, util::Status(), 0};
}

std::vector<SubmitResult> ApiServer::submit_batch(
    const std::string& tenant, std::vector<workload::JobSpec> jobs) {
  ++stats_.batch_submits;
  std::vector<SubmitResult> results;
  results.reserve(jobs.size());
  for (auto& job : jobs) results.push_back(submit(tenant, std::move(job)));
  return results;
}

util::Status ApiServer::cancel(const std::string& tenant,
                               const std::string& job_id) {
  auto owner = owner_of_.find(job_id);
  if (owner == owner_of_.end() || owner->second != tenant)
    return util::not_found_error("no such job for tenant: " + job_id);
  TenantState& state = tenant_state(tenant);
  if (queue_.remove(tenant, job_id)) {
    ++state.counters.cancelled_queued;
    ++stats_.totals.cancelled_queued;
    retired_.emplace(job_id, "cancelled_api");
    return util::Status();
  }
  if (coordinator_ == nullptr)
    return util::unavailable_error("no scheduler core attached");
  return coordinator_->cancel(job_id);
}

JobStatusView ApiServer::status(const std::string& tenant,
                                const std::string& job_id) const {
  JobStatusView view;
  view.id = job_id;
  auto owner = owner_of_.find(job_id);
  if (owner == owner_of_.end() || owner->second != tenant) {
    view.phase = "unknown";
    return view;
  }
  view.known = true;
  if (coordinator_ != nullptr) {
    if (const auto* record = coordinator_->job(job_id); record != nullptr) {
      view.phase = std::string(sched::job_phase_name(record->phase));
      view.progress = record->checkpointed_progress;
      return view;
    }
  }
  if (auto retired = retired_.find(job_id); retired != retired_.end()) {
    view.phase = retired->second;
    return view;
  }
  view.phase = "queued_api";
  return view;
}

std::vector<JobStatusView> ApiServer::status_batch(
    const std::string& tenant, const std::vector<std::string>& ids) {
  ++stats_.batch_status;
  std::vector<JobStatusView> views;
  views.reserve(ids.size());
  for (const auto& id : ids) views.push_back(status(tenant, id));
  return views;
}

void ApiServer::reconcile() {
  if (coordinator_ == nullptr) return;
  // Only tenants with in-flight jobs can have releases to settle; the
  // index keeps this O(live tenants), not O(tenants ever seen).
  for (auto lt = live_tenants_.begin(); lt != live_tenants_.end();) {
    const std::string& tenant = *lt;
    TenantState& state = tenants_.at(tenant);
    for (auto it = state.live.begin(); it != state.live.end();) {
      const auto* record = coordinator_->job(it->first);
      bool release = false;
      if (record == nullptr) {
        // The job left the local books entirely — withdrawn by the gateway
        // for a federation forward.  The remote region runs it without
        // re-charging admission (its home region — us — already did).
        ++state.counters.departed;
        ++stats_.totals.departed;
        retired_.emplace(it->first, "departed");
        release = true;
      } else if (sched::job_phase_terminal(record->phase)) {
        if (record->phase == sched::JobPhase::kCompleted) {
          ++state.counters.completed;
          ++stats_.totals.completed;
        }
        release = true;
      }
      if (release) {
        queue_.release(tenant, it->second);
        it = state.live.erase(it);
      } else {
        ++it;
      }
    }
    lt = state.live.empty() ? live_tenants_.erase(lt) : std::next(lt);
  }
}

void ApiServer::drain() {
  ++stats_.drains;
  threshold_drain_pending_ = false;
  // The request plane is its own tier: while the core is down it keeps
  // accepting into bounded queues and retries on the next tick.
  if (coordinator_ != nullptr && coordinator_->crashed()) return;
  reconcile();

  const util::SimTime now = env_.now();
  std::size_t dispatched = 0;
  bool any_dispatch = false;
  while (dispatched < config_.drain_batch) {
    auto next = queue_.pop_next([&](const std::string& tenant,
                                    const DrfQueue::Item& item) {
      const TenantState& state = tenants_.at(tenant);
      if (static_cast<int>(state.live.size()) >= state.quota.max_in_flight)
        return false;
      // Bounded core working set: hold the queue rather than flooding the
      // coordinator arbitrarily far past capacity.
      return queue_.total_usage().fits(item.demand, queue_.capacity(),
                                       kCoreLoadFactor);
    });
    if (!next) break;
    auto& [tenant, item] = *next;
    TenantState& state = tenants_.at(tenant);
    const std::string job_id = item.spec.id;
    const double estimate = gpu_seconds_estimate(item);

    // Deferred budget settlement: charges from earlier drains may have
    // exhausted the budget since this job was accepted.
    if (state.counters.gpu_seconds_charged + estimate >
        state.quota.gpu_seconds_budget + 1e-9) {
      ++state.counters.quota_dropped;
      ++stats_.totals.quota_dropped;
      retired_.emplace(job_id, "quota_dropped");
      continue;
    }

    obs::TraceContext ctx{item.trace_id, item.parent_span};
    if (tracer_ != nullptr && tracer_->enabled())
      tracer_->record(ctx, obs::stage::kApiQueue, actor_, item.enqueued_at,
                      now, "tenant=" + tenant);
    const ResourceVector demand = item.demand;
    util::Status status;
    if (dispatch_) {
      status = dispatch_(std::move(item.spec), 0.0, ctx);
    } else if (coordinator_ != nullptr) {
      status = coordinator_->submit(std::move(item.spec), 0.0, ctx);
    } else {
      status = util::unavailable_error("no dispatch sink");
    }
    ++dispatched;
    if (!status.is_ok()) {
      ++state.counters.dispatch_rejected;
      ++stats_.totals.dispatch_rejected;
      retired_.emplace(job_id, "dispatch_rejected");
      GPUNION_WLOG("api") << "core refused " << job_id << ": "
                          << status.message();
      continue;
    }
    any_dispatch = true;
    ++state.counters.dispatched;
    ++stats_.totals.dispatched;
    state.counters.gpu_seconds_charged += estimate;
    stats_.totals.gpu_seconds_charged += estimate;
    admission_latency_.add(now - item.enqueued_at);
    if (coordinator_ != nullptr) {
      queue_.charge(tenant, demand);
      state.live.emplace(job_id, demand);
      live_tenants_.insert(tenant);
    } else {
      // Standalone sink mode (request-plane benches): the core's lifecycle
      // is out of scope, so dispatches settle immediately.
      retired_.emplace(job_id, "dispatched");
    }
    if (dispatch_observer_) dispatch_observer_(tenant, job_id);
  }

  // One write-behind group commit amortizes the whole drained burst — the
  // PR 4 ledger machinery; without this every submit would pay its own
  // interval-flush latency.
  if (any_dispatch && database_ != nullptr) {
    database_->flush_ledger(db::FlushTrigger::kExplicit, now);
    ++stats_.group_commits;
  }
  // No note_queue_depths here: draining only pops, so the high-water
  // marks were already taken at push time.
}

void ApiServer::drain_to_quiescence() {
  std::uint64_t before;
  do {
    before = stats_.totals.dispatched + stats_.totals.quota_dropped +
             stats_.totals.dispatch_rejected;
    drain();
  } while (stats_.totals.dispatched + stats_.totals.quota_dropped +
               stats_.totals.dispatch_rejected !=
           before);
}

void ApiServer::publish_metrics(monitor::MetricRegistry& registry) const {
  auto& totals =
      registry.gauge_family("gpunion_api_requests",
                            "Aggregate request-plane counters by outcome");
  const TenantCounters& t = stats_.totals;
  totals.gauge({{"outcome", "submitted"}}).set(static_cast<double>(t.submitted));
  totals.gauge({{"outcome", "accepted"}}).set(static_cast<double>(t.accepted));
  totals.gauge({{"outcome", "dispatched"}})
      .set(static_cast<double>(t.dispatched));
  totals.gauge({{"outcome", "rejected_overloaded"}})
      .set(static_cast<double>(t.rejected_overloaded));
  totals.gauge({{"outcome", "rejected_quota"}})
      .set(static_cast<double>(t.rejected_quota + t.quota_dropped));
  totals.gauge({{"outcome", "rejected_invalid"}})
      .set(static_cast<double>(t.rejected_invalid));
  totals.gauge({{"outcome", "completed"}}).set(static_cast<double>(t.completed));
  totals.gauge({{"outcome", "departed"}}).set(static_cast<double>(t.departed));

  auto& plane = registry.gauge_family("gpunion_api_plane",
                                      "Request-plane operational gauges");
  plane.gauge({{"stat", "queued"}})
      .set(static_cast<double>(queue_.total_queued()));
  plane.gauge({{"stat", "tenants"}}).set(static_cast<double>(tenants_.size()));
  plane.gauge({{"stat", "drains"}}).set(static_cast<double>(stats_.drains));
  plane.gauge({{"stat", "group_commits"}})
      .set(static_cast<double>(stats_.group_commits));
  plane.gauge({{"stat", "max_total_queued"}})
      .set(static_cast<double>(stats_.max_total_queued));

  // Per-tenant gauges, top-K by accepted count so a million-tenant
  // population cannot blow up exposition cardinality.
  std::vector<std::pair<std::uint64_t, std::string>> ranked;
  ranked.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_)
    ranked.emplace_back(state.counters.accepted, name);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  if (ranked.size() > kMetricsTopTenants) ranked.resize(kMetricsTopTenants);
  auto& queued_family = registry.gauge_family(
      "gpunion_api_tenant_queued", "Queued jobs per tenant (top-K)");
  auto& inflight_family = registry.gauge_family(
      "gpunion_api_tenant_in_flight", "Core-live jobs per tenant (top-K)");
  auto& share_family =
      registry.gauge_family("gpunion_api_tenant_dominant_share",
                            "Weighted DRF dominant share per tenant (top-K)");
  auto& accepted_family = registry.gauge_family(
      "gpunion_api_tenant_accepted", "Accepted submissions per tenant (top-K)");
  auto& gpu_seconds_family =
      registry.gauge_family("gpunion_api_tenant_gpu_seconds",
                            "GPU-seconds charged per tenant (top-K)");
  for (const auto& [accepted, name] : ranked) {
    const auto& state = tenants_.at(name);
    monitor::Labels labels{{"tenant", name}};
    queued_family.gauge(labels).set(static_cast<double>(queue_.queued(name)));
    inflight_family.gauge(labels).set(static_cast<double>(state.live.size()));
    share_family.gauge(labels).set(queue_.dominant_share_of(name));
    accepted_family.gauge(labels).set(static_cast<double>(accepted));
    gpu_seconds_family.gauge(labels).set(state.counters.gpu_seconds_charged);
  }
}

}  // namespace gpunion::api
