// End-to-end causal tracing for the control plane.
//
// The monitor/ layer aggregates (counters, gauges, histograms); it cannot
// answer *where one job's latency went* across submit -> queue -> placement
// -> dispatch -> run -> checkpoint -> WAN forward -> remote admit.  This
// module adds that missing axis: a TraceContext rides every job through the
// coordinator, the write-behind database and the federation gateways, and
// each stage closes a Span into a bounded ring buffer.
//
// Identity model:
//  - trace id = FNV-1a hash of the job id.  Any component that only sees a
//    job key (the DB group-commit path, a remote region admitting a
//    transfer) derives the SAME trace id without any plumbing, so a job
//    forwarded A -> B -> C yields ONE trace whose spans come from three
//    regions' components.
//  - span ids are allocated from a counter.  Every span is recorded from
//    an event callback of the one simulation thread, in the global event
//    order, so the full span stream is bit-identical across runs.
//  - parent edges: each recorded span may advance its TraceContext's
//    parent_span, so the next stage parents to it.  Cross-region edges ride
//    JobTransfer (the sender's transfer span id becomes the receiver's
//    admit span's parent), mirroring the PR 5 hop chains.
//
// Cost model: tracing is OFF unless a Tracer is wired into the configs
// (null pointer = not even a branch beyond the null check), and a compiled
// tracer can be disabled at build time with -DGPUNION_TRACING=0, which
// turns enabled() into a constant-false the optimizer deletes.  The ring
// drops oldest spans at capacity (dropped() counts them) so memory is
// bounded no matter how long the run is.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/metrics.h"
#include "util/time.h"

#ifndef GPUNION_TRACING
#define GPUNION_TRACING 1
#endif

namespace gpunion::obs {

/// Compile-time kill switch: with -DGPUNION_TRACING=0 every enabled() guard
/// folds to `false` and the instrumentation inlines away.
inline constexpr bool kTracingCompiledIn = GPUNION_TRACING != 0;

/// Span taxonomy.  Stage names double as the `stage` label of the
/// auto-registered latency histograms, so keep them exposition-safe.
namespace stage {
/// Tenant edge (src/api): admission decision, then time spent in the
/// per-tenant DRF queue before the core saw the job.  kApiAdmit is the
/// trace ROOT for API-submitted jobs — end-to-end latency starts here.
inline constexpr std::string_view kApiAdmit = "api_admit";
inline constexpr std::string_view kApiQueue = "api_queue";
inline constexpr std::string_view kSubmit = "submit";
inline constexpr std::string_view kQueueWait = "queue_wait";
inline constexpr std::string_view kPlacement = "placement";
inline constexpr std::string_view kDispatch = "dispatch";
inline constexpr std::string_view kRun = "run";
inline constexpr std::string_view kCheckpoint = "checkpoint";
inline constexpr std::string_view kInterrupt = "interrupt";
inline constexpr std::string_view kRecoveryRedispatch = "recovery_redispatch";
inline constexpr std::string_view kDbGroupCommit = "db_group_commit";
inline constexpr std::string_view kFedWithdraw = "fed_withdraw";
inline constexpr std::string_view kFedOffer = "fed_offer";
inline constexpr std::string_view kFedTransfer = "fed_transfer";
inline constexpr std::string_view kFedAdmit = "fed_admit";
}  // namespace stage

/// Carried by a job through every control-plane component.  parent_span is
/// the id of the most recent causally-preceding span; components record
/// their own span with it as parent, then (usually) advance it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
};

/// One completed stage of one trace.  Ring order is CLOSE order, which is a
/// deterministic function of the event order.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  // 0 = root
  std::string stage;              // stage:: taxonomy name
  std::string actor;              // emitting component ("coordinator/alpha")
  util::SimTime start = 0;
  util::SimTime end = 0;
  std::string detail;             // freeform ("node=ws-3", "cause=emergency")

  double duration() const { return end - start; }
};

/// Span sink: a drop-oldest ring buffer plus per-stage latency
/// histograms.  One Tracer is shared by every component of a platform (or
/// every region of a federation) so a cross-region trace lands in one ring.
class Tracer {
 public:
  /// `capacity` bounds the ring (spans beyond it evict the oldest).
  explicit Tracer(std::size_t capacity = 1 << 16);

  // Components keep its address: a copy would split one trace in two.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Cheap guard every instrumentation site checks first.  Constant false
  /// when tracing is compiled out.
  bool enabled() const { return kTracingCompiledIn && enabled_; }
  void set_enabled(bool on) { enabled_ = kTracingCompiledIn && on; }

  /// Deterministic trace id of a job: FNV-1a of the id string (never 0).
  /// Stable across regions, processes and runs — the property that lets the
  /// DB flush path and a remote admitting gateway join the same trace.
  static std::uint64_t trace_for_job(std::string_view job_id);

  /// Allocates a span id without recording anything — for spans whose id
  /// must be visible to children (or cross the WAN) before they close.
  /// Returns 0 when tracing is off.
  std::uint64_t open_span();

  /// Records a span under a pre-allocated id (see open_span).
  void close_span(std::uint64_t span_id, std::uint64_t trace_id,
                  std::uint64_t parent_span, std::string_view stage,
                  std::string_view actor, util::SimTime start,
                  util::SimTime end, std::string detail = {});

  /// Allocates + records in one step: the span parents to ctx.parent_span,
  /// and with `advance` the context's parent becomes this span (so the next
  /// stage chains to it).  Returns the span id (0 when tracing is off).
  std::uint64_t record(TraceContext& ctx, std::string_view stage,
                       std::string_view actor, util::SimTime start,
                       util::SimTime end, std::string detail = {},
                       bool advance = true);

  /// All retained spans, oldest first (close order).
  std::vector<Span> snapshot() const;
  /// Retained spans of one trace, oldest first.
  std::vector<Span> trace(std::uint64_t trace_id) const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const { return recorded_; }
  /// Spans evicted by the drop-oldest policy.
  std::uint64_t dropped() const { return dropped_; }
  /// Drops every retained span and resets counters (benches reuse a tracer
  /// across A/B phases); span ids keep counting up.
  void clear();

  /// Copies the per-stage latency histograms and ring counters into
  /// `registry` (families gpunion_trace_stage_seconds,
  /// gpunion_trace_spans_*), so expose_registry serves stage-level p50/p99.
  /// Called from the owning platform's metrics refresh.
  void publish_metrics(monitor::MetricRegistry& registry) const;

  /// Bucket bounds of the stage latency histograms (seconds).
  static const std::vector<double>& stage_bounds();

 private:
  void push(Span span);

  const std::size_t capacity_;
  bool enabled_ = kTracingCompiledIn;
  std::vector<Span> ring_;       // ring_[head_] is the oldest once full
  std::size_t head_ = 0;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  /// Per-stage latency, accumulated tracer-side and copied out by
  /// publish_metrics.
  std::map<std::string, monitor::Histogram, std::less<>> stage_latency_;
};

}  // namespace gpunion::obs
