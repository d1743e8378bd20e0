// Span exporters: Chrome/Perfetto trace-event JSON for humans, and a
// compact length-prefixed binary codec for machine round-trips (the
// determinism tests compare encoded byte streams, and benches persist
// sample traces as artifacts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace gpunion::obs {

/// Renders spans as a Chrome trace-event JSON document ("traceEvents"
/// array of complete "X" events).  Open the output in ui.perfetto.dev or
/// chrome://tracing.  Rows (tid) group spans by actor; timestamps are sim
/// seconds scaled to microseconds.  Deterministic for a given span list.
std::string perfetto_trace_json(const std::vector<Span>& spans);

/// Compact binary encoding: "GPTR" magic, format version, span count, then
/// fixed-width little-endian fields with length-prefixed strings.  A byte-
/// identical encoding <=> an identical span stream, which is what the
/// replay-determinism tests assert.
std::vector<std::uint8_t> encode_spans(const std::vector<Span>& spans);

/// Inverse of encode_spans.  Returns false (leaving *out empty) on a
/// truncated, foreign or corrupt buffer, including one whose span count
/// exceeds what its bytes can hold; never throws on malformed input.
bool decode_spans(const std::vector<std::uint8_t>& bytes,
                  std::vector<Span>* out);

}  // namespace gpunion::obs
