// Shared types of the GPUnion benchmark.
//
// A run of the benchmark simulates an ensemble of independent instances of
// one workload.  Each instance generates the users' inputs from its own
// sub-seed of the run's seed, builds and starts a campus (set-up), then
// advances simulated time to the horizon in fixed slices (the timed
// phase).  Outcomes are pooled over the ensemble, so a run measures enough
// simulated work that its figures depend little on the seed.
//
// The benchmark measures gpunion_core from outside: it calls the public
// API (Platform, Coordinator, ApiServer) and reads public counters.  In a
// traced instance a Probe times every call the benchmark makes into a
// layer and keeps the spans in memory until the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpunion/platform.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "workload/job.h"
#include "workload/provider_behavior.h"

namespace perfbench {

using gpunion::util::Duration;
using gpunion::util::SimTime;

/// Host clocks: steady wall seconds and process CPU seconds.
double wall_now();
double cpu_now();

/// 64-bit FNV-1a hash (the simulated-outcome digest).
std::uint64_t fnv1a(const std::string& text);

// --- Generated inputs ----------------------------------------------------

/// One job a user hands to the coordinator at `at`.
struct Submission {
  SimTime at = 0;
  gpunion::workload::JobSpec job;
};

/// One tenant request at the API edge: a submit (one job) or a batched
/// submit (several), a later status poll, and a cancel if the jobs are
/// still waiting after `patience`.
struct TenantRequest {
  SimTime at = 0;
  std::string tenant;
  std::vector<gpunion::workload::JobSpec> jobs;
  Duration poll_after = 0;
  Duration patience = 0;
};

/// Everything a workload generator produces from the seed.  The program
/// under test receives only these; its own environment seed is fixed.
struct Inputs {
  std::vector<Submission> submissions;
  std::vector<gpunion::workload::Interruption> churn;
  std::vector<TenantRequest> requests;
};

/// Set-up ends when the campus has run to this time (every agent has
/// registered); the timed phase starts here.
inline constexpr SimTime kWarmupEnd = 5.0;

/// The timed phase advances to `horizon` in slices of `slice`.
struct Timeline {
  SimTime horizon = 0;
  Duration slice = 0;
};

// --- Tracing -------------------------------------------------------------

/// A traced instance's span recorder.  Spans nest strictly (the
/// benchmark is single-threaded), so the parent is the innermost open
/// span.  Times are host seconds since the run started.
class Probe {
 public:
  explicit Probe(double origin) : origin_(origin) {}

  std::uint64_t open(std::string_view name, std::uint64_t trace_id = 0);
  /// Closes the innermost open span, which must be `id`; returns its
  /// duration in host seconds.
  double close(std::uint64_t id, std::string detail = {});
  /// Sets the detail of the recently closed span `id`.
  void annotate(std::uint64_t id, std::string detail);

  /// Host microseconds of every traced call, by call name.
  std::map<std::string, gpunion::util::SampleSet, std::less<>> call_us;
  /// Host seconds the current slice spent inside benchmark calls.
  double slice_covered_s = 0;

  const std::vector<gpunion::obs::Span>& spans() const { return spans_; }

 private:
  double origin_;
  std::uint64_t next_id_ = 1;
  std::vector<gpunion::obs::Span> spans_;
  std::vector<std::size_t> open_;  // indexes into spans_
};

// --- One instance -----------------------------------------------------------

/// The benchmark's record of one job a user offered.
struct Offer {
  std::string tenant;       // empty when submitted to the coordinator
  SimTime submitted_at = 0;  // the user's submit call
  bool interactive = false;
  bool refused = false;  // refused at the API edge (never admitted)
};

class Instance {
 public:
  Instance(const gpunion::CampusConfig& config, Probe* probe);

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  gpunion::sim::Environment& env() { return *env_; }
  gpunion::Platform& platform() { return *platform_; }
  gpunion::sched::Coordinator& coordinator() {
    return platform_->coordinator();
  }

  /// Runs `fn` as one traced call named `name` (a child span of the
  /// current slice); untraced instances just run it.
  template <typename Fn>
  decltype(auto) call(std::string_view name, std::string_view job_id,
                      Fn&& fn) {
    CallScope scope(probe_, name, job_id);
    return fn();
  }

  // User actions.  Each records what was offered and counts a call whose
  // status the protocol does not allow as a failed operation.
  void submit(gpunion::workload::JobSpec job);
  void cancel_if_waiting(const std::string& job_id);
  void interrupt(const gpunion::workload::Interruption& event);
  void api_submit(const TenantRequest& request);
  void api_poll(const TenantRequest& request);
  void api_give_up(const TenantRequest& request);

  const std::map<std::string, Offer>& offers() const { return offers_; }
  std::uint64_t failed_calls() const { return failed_calls_; }

 private:
  class CallScope {
   public:
    CallScope(Probe* probe, std::string_view name, std::string_view job_id);
    ~CallScope();
    CallScope(const CallScope&) = delete;
    CallScope& operator=(const CallScope&) = delete;

   private:
    Probe* probe_;
    std::string_view name_;
    std::uint64_t span_ = 0;
  };

  std::unique_ptr<gpunion::sim::Environment> env_;
  std::unique_ptr<gpunion::Platform> platform_;
  Probe* probe_;
  std::map<std::string, Offer> offers_;
  std::uint64_t failed_calls_ = 0;
};

// --- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Timeline timeline() const = 0;
  /// Host seconds one instance takes on the reference machine (4-core
  /// x86-64, RelWithDebInfo); a run of S seconds simulates S / this many
  /// instances, so the ensemble, and hence every simulated outcome, is a
  /// function of the seed and --seconds only.
  virtual double instance_seconds() const = 0;
  virtual gpunion::CampusConfig config() const = 0;
  /// The users' inputs for `seed`.  Pure: touches no program object.
  virtual Inputs generate(std::uint64_t seed) const = 0;
  /// Schedules the inputs, and the users' reactions to what they see, as
  /// events of the started campus.  `inputs` must outlive `inst`.
  virtual void schedule(Instance& inst, const Inputs& inputs) const = 0;
};

/// The workload called `name`, or nullptr.
std::unique_ptr<Workload> make_workload(std::string_view name);

// --- Measuring an instance ---------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Simulated outcomes of one instance, pooled over the ensemble.
struct Outcome {
  double ops = 0;  // jobs the users offered
  double completed = 0;
  double sessions_served = 0;
  double unfinished = 0;  // still queued or running at the horizon
  double failed = 0;      // refused + denied + disrupted + abandoned
  double refused = 0;     // refused at the API edge
  double denied = 0;
  double disrupted = 0;
  double displaced = 0;  // departure-displaced training jobs, decided
  double resumed = 0;    // ... resumed within migration_success_window
  double gpu_util = 0;
  std::vector<double> waits;  // user submit -> first dispatch, sim s
};

/// What one instance measured.
struct InstanceResult {
  /// Host seconds of trace generation + construction + start() + warm-up.
  double setup_s = 0;
  /// Host CPU and wall seconds of the timed phase.
  double cpu_s = 0;
  double wall_s = 0;
  Outcome outcome;
  std::uint64_t failed_calls = 0;
  /// Per job: id, final phase, first-dispatch and completion time; then
  /// gpu_util.
  std::string digest_text;
  /// Broken output identities; an instance with any fails the run.
  std::vector<std::string> errors;
  /// Per-layer metrics (traced instances only), plus the counts the
  /// per-operation host costs divide by.
  Metrics layers;
  double heartbeats = 0;
  double events = 0;
};

InstanceResult run_instance(const Workload& workload, std::uint64_t seed,
                            Probe* probe);

/// End-to-end simulated outcomes pooled over `outcomes`; the outcomes too
/// heavy-tailed or sparse to gate go to `ungated`, and a line of sample
/// counts to print beside them to `note`.
Metrics pooled_outcomes(const std::vector<const Outcome*>& outcomes,
                        Metrics* ungated, std::string* note);

}  // namespace perfbench
