#include "obs/trace.h"

#include <algorithm>
#include <utility>

#include "util/ids.h"

namespace gpunion::obs {

Tracer::Tracer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

std::uint64_t Tracer::trace_for_job(std::string_view job_id) {
  // 0 is reserved for "no trace".
  const std::uint64_t hash = util::fnv1a64(job_id);
  return hash == 0 ? 1099511628211ull : hash;
}

std::uint64_t Tracer::open_span() {
  if (!enabled()) return 0;
  return next_span_id_++;
}

void Tracer::close_span(std::uint64_t span_id, std::uint64_t trace_id,
                        std::uint64_t parent_span, std::string_view stage,
                        std::string_view actor, util::SimTime start,
                        util::SimTime end, std::string detail) {
  if (!enabled() || span_id == 0) return;
  Span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span = parent_span;
  span.stage.assign(stage);
  span.actor.assign(actor);
  span.start = start;
  span.end = end;
  span.detail = std::move(detail);
  auto it = stage_latency_.find(span.stage);
  if (it == stage_latency_.end()) {
    it = stage_latency_
             .emplace(span.stage, monitor::Histogram(stage_bounds()))
             .first;
  }
  it->second.observe(std::max(0.0, span.duration()));
  push(std::move(span));
}

std::uint64_t Tracer::record(TraceContext& ctx, std::string_view stage,
                             std::string_view actor, util::SimTime start,
                             util::SimTime end, std::string detail,
                             bool advance) {
  if (!enabled() || !ctx.valid()) return 0;
  const std::uint64_t span_id = open_span();
  close_span(span_id, ctx.trace_id, ctx.parent_span, stage, actor, start, end,
             std::move(detail));
  if (advance) ctx.parent_span = span_id;
  return span_id;
}

void Tracer::push(Span span) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[head_] = std::move(span);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
  ++recorded_;
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<Span> Tracer::trace(std::uint64_t trace_id) const {
  std::vector<Span> all = snapshot();
  std::vector<Span> out;
  for (auto& span : all) {
    if (span.trace_id == trace_id) out.push_back(std::move(span));
  }
  return out;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  dropped_ = 0;
  stage_latency_.clear();
}

void Tracer::publish_metrics(monitor::MetricRegistry& registry) const {
  auto& stage_family = registry.histogram_family(
      "gpunion_trace_stage_seconds",
      "Span-derived latency per trace stage", stage_bounds());
  for (const auto& [name, hist] : stage_latency_) {
    stage_family.histogram({{"stage", name}}) = hist;
  }
  auto& spans = registry.gauge_family("gpunion_trace_spans",
                                      "Span ring buffer accounting");
  spans.gauge({{"state", "recorded"}}).set(static_cast<double>(recorded_));
  spans.gauge({{"state", "dropped"}}).set(static_cast<double>(dropped_));
  spans.gauge({{"state", "retained"}}).set(static_cast<double>(ring_.size()));
}

const std::vector<double>& Tracer::stage_bounds() {
  static const std::vector<double> kBounds = {
      0.001, 0.005, 0.01, 0.05, 0.1,  0.5,   1.0,   2.0,
      5.0,   10.0,  30.0, 60.0, 120.0, 300.0, 600.0, 1800.0};
  return kBounds;
}

}  // namespace gpunion::obs
