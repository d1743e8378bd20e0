// The causal trace context a job carries through the control plane.
//
// Dependency-free so durable rows (db/) can store it as it is: a job's or
// an in-flight forward's trace survives a crash with its row (obs/trace.h
// has the identity model).
#pragma once

#include <cstdint>

namespace gpunion::obs {

/// Carried by a job through every control-plane component.  parent_span is
/// the id of the most recent causally-preceding span; components record
/// their own span with it as parent, then (usually) advance it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
  bool operator==(const TraceContext&) const = default;
};

}  // namespace gpunion::obs
