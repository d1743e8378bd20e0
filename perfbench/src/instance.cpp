// Host clocks, the span recorder, and the users' actions on one instance.
#include <cassert>
#include <chrono>
#include <ctime>

#include "bench.h"

namespace perfbench {

namespace gu = gpunion;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- Probe ---------------------------------------------------------------

std::uint64_t Probe::open(std::string_view name, std::uint64_t trace_id) {
  gu::obs::Span span;
  span.trace_id = trace_id;
  span.span_id = next_id_++;
  span.parent_span = open_.empty() ? 0 : spans_[open_.back()].span_id;
  span.stage = std::string(name);
  span.actor = "perfbench";
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  spans_.back().start = wall_now() - origin_;
  return spans_.back().span_id;
}

double Probe::close(std::uint64_t id, std::string detail) {
  assert(!open_.empty() && spans_[open_.back()].span_id == id);
  (void)id;
  gu::obs::Span& span = spans_[open_.back()];
  open_.pop_back();
  span.end = wall_now() - origin_;
  span.detail = std::move(detail);
  return span.end - span.start;
}

void Probe::annotate(std::uint64_t id, std::string detail) {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->span_id == id) {
      it->detail = std::move(detail);
      return;
    }
  }
}

// --- Instance ----------------------------------------------------------------

namespace {

/// The program's own environment seed.  Fixed: the workload seed reaches
/// the program only through the inputs generated from it.
constexpr std::uint64_t kProgramSeed = 1;

}  // namespace

Instance::CallScope::CallScope(Probe* probe, std::string_view name,
                               std::string_view job_id)
    : probe_(probe), name_(name) {
  if (probe_ == nullptr) return;
  span_ = probe_->open(
      name, job_id.empty() ? 0 : gu::obs::Tracer::trace_for_job(job_id));
}

Instance::CallScope::~CallScope() {
  if (probe_ == nullptr) return;
  const double seconds = probe_->close(span_);
  auto it = probe_->call_us.find(name_);
  if (it == probe_->call_us.end()) {
    it = probe_->call_us.emplace(std::string(name_), gu::util::SampleSet())
             .first;
  }
  it->second.add(seconds * 1e6);
  probe_->slice_covered_s += seconds;
}

Instance::Instance(const gu::CampusConfig& config, Probe* probe)
    : env_(std::make_unique<gu::sim::Environment>(
          kProgramSeed,
          gu::sim::EnvConfig{gu::sim::ExecutionMode::kDeterministic})),
      platform_(std::make_unique<gu::Platform>(*env_, config)),
      probe_(probe) {
  // A traced instance also times the core submits the request plane
  // makes: the hook makes the same call the server makes without one.
  if (probe_ != nullptr && platform_->has_api()) {
    platform_->api().set_dispatch([this](gu::workload::JobSpec job,
                                         double start_progress,
                                         gu::obs::TraceContext trace) {
      const std::string id = job.id;
      return call("Coordinator::submit", id, [&] {
        return coordinator().submit(std::move(job), start_progress, trace);
      });
    });
  }
}

void Instance::submit(gu::workload::JobSpec job) {
  const std::string id = job.id;
  offers_[id] = Offer{"", env_->now(),
                      job.type == gu::workload::JobType::kInteractive, false};
  const gu::util::Status status = call("Coordinator::submit", id, [&] {
    return coordinator().submit(std::move(job));
  });
  if (!status.is_ok()) ++failed_calls_;
}

void Instance::cancel_if_waiting(const std::string& job_id) {
  const gu::sched::JobRecord* record = coordinator().job(job_id);
  if (record == nullptr || record->phase != gu::sched::JobPhase::kPending) {
    return;
  }
  const gu::util::Status status = call("Coordinator::cancel", job_id, [&] {
    return coordinator().cancel(job_id);
  });
  if (!status.is_ok()) ++failed_calls_;
}

void Instance::interrupt(const gu::workload::Interruption& event) {
  call("Platform::inject_interruption", "",
       [&] { platform().inject_interruption(event); });
}

void Instance::api_submit(const TenantRequest& request) {
  gu::api::ApiServer& api = platform().api();
  for (const auto& job : request.jobs) {
    offers_[job.id] =
        Offer{request.tenant, env_->now(),
              job.type == gu::workload::JobType::kInteractive, false};
  }
  auto settle = [&](const std::string& job_id,
                    const gu::api::SubmitResult& result) {
    if (result.accepted()) return;
    offers_[job_id].refused = true;
    // Backpressure and quota answers are the protocol working; an invalid
    // request means the benchmark built a bad one.
    if (result.outcome == gu::api::AdmitOutcome::kRejected) ++failed_calls_;
  };
  if (request.jobs.size() == 1) {
    const auto& job = request.jobs.front();
    const auto result = call("ApiServer::submit", job.id, [&] {
      return api.submit(request.tenant, job);
    });
    settle(job.id, result);
    return;
  }
  const auto results = call("ApiServer::submit_batch", "", [&] {
    return api.submit_batch(request.tenant, request.jobs);
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    settle(request.jobs[i].id, results[i]);
  }
}

namespace {

std::vector<std::string> admitted_ids(
    const TenantRequest& request, const std::map<std::string, Offer>& offers) {
  std::vector<std::string> ids;
  for (const auto& job : request.jobs) {
    if (!offers.at(job.id).refused) ids.push_back(job.id);
  }
  return ids;
}

}  // namespace

void Instance::api_poll(const TenantRequest& request) {
  gu::api::ApiServer& api = platform().api();
  const std::vector<std::string> ids = admitted_ids(request, offers_);
  if (ids.empty()) return;
  std::vector<gu::api::JobStatusView> views;
  if (ids.size() == 1) {
    views.push_back(call("ApiServer::status", ids.front(), [&] {
      return api.status(request.tenant, ids.front());
    }));
  } else {
    views = call("ApiServer::status_batch", "",
                 [&] { return api.status_batch(request.tenant, ids); });
  }
  for (const auto& view : views) {
    if (!view.known) ++failed_calls_;
  }
}

void Instance::api_give_up(const TenantRequest& request) {
  gu::api::ApiServer& api = platform().api();
  for (const auto& job_id : admitted_ids(request, offers_)) {
    const auto view = call("ApiServer::status", job_id, [&] {
      return api.status(request.tenant, job_id);
    });
    if (!view.known) ++failed_calls_;
    if (view.phase != "queued_api" && view.phase != "pending") continue;
    const gu::util::Status status = call("ApiServer::cancel", job_id, [&] {
      return api.cancel(request.tenant, job_id);
    });
    if (!status.is_ok()) ++failed_calls_;
  }
}

}  // namespace perfbench
