// Tracer + exporter unit tests, and the single-campus causal-chain
// contract: one traced job yields submit -> queue_wait -> placement ->
// dispatch -> run with parent edges intact, checkpoint spans as siblings
// of the run, and the write-behind ledger's group commits joining the
// same trace by key-derived trace id.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpunion/platform.h"
#include "monitor/exposition.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workload/profiles.h"

namespace gpunion::obs {
namespace {

TEST(TracerTest, TraceForJobIsStableAndNonZero) {
  const std::uint64_t a = Tracer::trace_for_job("job-42");
  EXPECT_EQ(a, Tracer::trace_for_job("job-42"));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, Tracer::trace_for_job("job-43"));
  EXPECT_NE(Tracer::trace_for_job(""), 0u);  // never the invalid id
}

TEST(TracerTest, RecordAdvancesTheParentChain) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("chain"), 0};
  const std::uint64_t first = tracer.record(ctx, stage::kSubmit, "c", 0, 1);
  ASSERT_NE(first, 0u);
  EXPECT_EQ(ctx.parent_span, first);
  const std::uint64_t second =
      tracer.record(ctx, stage::kQueueWait, "c", 1, 2);
  EXPECT_EQ(ctx.parent_span, second);

  const auto spans = tracer.trace(ctx.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent_span, 0u);       // root
  EXPECT_EQ(spans[1].parent_span, first);    // chained
}

TEST(TracerTest, AdvanceFalseRecordsASibling) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("sib"), 0};
  const std::uint64_t run_parent =
      tracer.record(ctx, stage::kDispatch, "c", 0, 1);
  tracer.record(ctx, stage::kCheckpoint, "c", 2, 2, "", /*advance=*/false);
  tracer.record(ctx, stage::kCheckpoint, "c", 3, 3, "", /*advance=*/false);
  EXPECT_EQ(ctx.parent_span, run_parent);  // context did not move
  const auto spans = tracer.trace(ctx.trace_id);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent_span, run_parent);
  EXPECT_EQ(spans[2].parent_span, run_parent);
}

TEST(TracerTest, RingDropsOldestAtCapacity) {
  Tracer tracer(/*capacity=*/4);
  TraceContext ctx{Tracer::trace_for_job("ring"), 0};
  for (int i = 0; i < 6; ++i) {
    tracer.record(ctx, stage::kRun, "c", i, i + 1,
                  "n=" + std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first snapshot: the two earliest spans were evicted.
  EXPECT_EQ(spans.front().detail, "n=2");
  EXPECT_EQ(spans.back().detail, "n=5");
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].span_id, spans[i - 1].span_id);
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.enabled());
  TraceContext ctx{Tracer::trace_for_job("off"), 0};
  EXPECT_EQ(tracer.record(ctx, stage::kSubmit, "c", 0, 1), 0u);
  EXPECT_EQ(ctx.parent_span, 0u);  // context untouched while off
  EXPECT_EQ(tracer.open_span(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, OpenThenCloseSpanKeepsThePreallocatedId) {
  Tracer tracer;
  const std::uint64_t id = tracer.open_span();
  ASSERT_NE(id, 0u);
  const std::uint64_t trace_id = Tracer::trace_for_job("wan");
  // A child recorded BEFORE the parent closes (the cross-WAN shape).
  TraceContext child{trace_id, id};
  const std::uint64_t admit =
      tracer.record(child, stage::kFedAdmit, "gw-b", 5, 5);
  tracer.close_span(id, trace_id, 0, stage::kFedTransfer, "gw-a", 1, 6);
  const auto spans = tracer.trace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].span_id, admit);
  EXPECT_EQ(spans[0].parent_span, id);
  EXPECT_EQ(spans[1].span_id, id);
  EXPECT_EQ(spans[1].stage, stage::kFedTransfer);
}

TEST(TracerTest, ClearResetsRetainedSpansButNotSpanIds) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("clr"), 0};
  const std::uint64_t before = tracer.record(ctx, stage::kRun, "c", 0, 1);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  TraceContext fresh{Tracer::trace_for_job("clr"), 0};
  EXPECT_GT(tracer.record(fresh, stage::kRun, "c", 1, 2), before);
}

std::vector<Span> sample_spans() {
  std::vector<Span> spans;
  Span a;
  a.trace_id = 0xDEADBEEFu;
  a.span_id = 1;
  a.parent_span = 0;
  a.stage = "submit";
  a.actor = "coordinator-alpha";
  a.start = 1.5;
  a.end = 2.25;
  a.detail = "node=ws-0,\"quoted\"\\slash";
  Span b;
  b.trace_id = 0xDEADBEEFu;
  b.span_id = 2;
  b.parent_span = 1;
  b.stage = "fed_transfer";
  b.actor = "gw-alpha";
  b.start = 2.25;
  b.end = 9.0;
  spans.push_back(a);
  spans.push_back(b);
  return spans;
}

TEST(SpanCodecTest, BinaryRoundTripPreservesEveryField) {
  const auto spans = sample_spans();
  const auto bytes = encode_spans(spans);
  std::vector<Span> decoded;
  ASSERT_TRUE(decode_spans(bytes, &decoded));
  ASSERT_EQ(decoded.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(decoded[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(decoded[i].span_id, spans[i].span_id);
    EXPECT_EQ(decoded[i].parent_span, spans[i].parent_span);
    EXPECT_EQ(decoded[i].stage, spans[i].stage);
    EXPECT_EQ(decoded[i].actor, spans[i].actor);
    EXPECT_DOUBLE_EQ(decoded[i].start, spans[i].start);
    EXPECT_DOUBLE_EQ(decoded[i].end, spans[i].end);
    EXPECT_EQ(decoded[i].detail, spans[i].detail);
  }
  // Identical streams encode identically (the determinism tests' axiom).
  EXPECT_EQ(encode_spans(spans), bytes);
}

TEST(SpanCodecTest, DecodeRejectsTruncatedAndForeignBuffers) {
  const auto bytes = encode_spans(sample_spans());
  std::vector<Span> out;
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(decode_spans(truncated, &out)) << "cut at " << cut;
    EXPECT_TRUE(out.empty());
  }
  std::vector<std::uint8_t> foreign = bytes;
  foreign[0] ^= 0xFF;  // wrong magic
  EXPECT_FALSE(decode_spans(foreign, &out));
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);  // junk after the last span
  EXPECT_FALSE(decode_spans(trailing, &out));
}

TEST(SpanCodecTest, HostileAndMutatedBuffersNeverThrow) {
  // A 16-byte header (magic, version, count) claiming more spans than the
  // buffer can hold must be refused before anything is reserved for them.
  std::vector<Span> out;
  for (std::uint64_t count : {std::uint64_t{1} << 62, std::uint64_t{1} << 28}) {
    std::vector<std::uint8_t> bytes = encode_spans({});
    ASSERT_EQ(bytes.size(), 16u);
    for (int i = 0; i < 8; ++i) {
      bytes[8 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    }
    bool ok = true;
    EXPECT_NO_THROW(ok = decode_spans(bytes, &out)) << "count " << count;
    EXPECT_FALSE(ok) << "count " << count;
    EXPECT_TRUE(out.empty());
  }

  // Seeded mutations of a 6-span stream: no input throws, a rejected one
  // leaves the output empty, and an accepted one re-encodes byte for byte.
  std::vector<Span> spans;
  for (std::uint64_t copy = 0; copy < 3; ++copy) {
    for (Span span : sample_spans()) {
      span.span_id += 2 * copy;
      spans.push_back(std::move(span));
    }
  }
  const std::vector<std::uint8_t> clean = encode_spans(spans);
  util::Rng rng(8);
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> bytes = clean;
    const auto offset = [&](std::size_t width) {
      return static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size() - width)));
    };
    const auto overwrite = [&](std::size_t at, std::size_t width,
                               std::uint64_t value) {
      for (std::size_t b = 0; b < width; ++b) {
        bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
      }
    };
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // bit flip
        const std::size_t at = offset(1);
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      }
      case 1:
        overwrite(offset(4), 4, rng.next_u64());
        break;
      case 2:
        overwrite(offset(8), 8, rng.next_u64());
        break;
      case 3:  // span count, at every magnitude
        overwrite(8, 8, rng.next_u64() >> rng.uniform_int(0, 63));
        break;
      default:  // truncation
        bytes.resize(offset(1));
    }
    std::vector<Span> decoded;
    bool ok = false;
    ASSERT_NO_THROW(ok = decode_spans(bytes, &decoded)) << "mutation " << i;
    if (!ok) {
      ASSERT_TRUE(decoded.empty()) << "mutation " << i;
      continue;
    }
    ++accepted;
    ASSERT_EQ(encode_spans(decoded), bytes) << "mutation " << i;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(SpanExportTest, PerfettoJsonNamesActorsAndEvents) {
  const std::string json = perfetto_trace_json(sample_spans());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("coordinator-alpha"), std::string::npos);
  EXPECT_NE(json.find("gw-alpha"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"submit\""), std::string::npos);
  // 1.5 sim-seconds -> 1500000 us.
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos);
  // The nasty detail string survived JSON escaping.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(SpanExportTest, PublishMetricsRegistersStageHistograms) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("metrics"), 0};
  tracer.record(ctx, stage::kSubmit, "c", 0.0, 0.5);
  tracer.record(ctx, stage::kRun, "c", 0.5, 10.5);
  monitor::MetricRegistry registry;
  tracer.publish_metrics(registry);
  const std::string text = monitor::expose_registry(registry);
  EXPECT_NE(text.find("gpunion_trace_stage_seconds"), std::string::npos);
  EXPECT_NE(text.find("stage=\"submit\""), std::string::npos);
  EXPECT_NE(text.find("stage=\"run\""), std::string::npos);
  EXPECT_NE(text.find("gpunion_trace_spans{state=\"recorded\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gpunion_trace_spans{state=\"dropped\"} 0"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Single-campus causal chain
// ---------------------------------------------------------------------------

CampusConfig traced_campus(int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back({hw::workstation_3090("tr-" + std::to_string(i)),
                            "group-a"});
  }
  config.storage.push_back({"nas-tr", 512ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  config.db.write_behind = true;  // group commits produce db spans
  config.db.flush_threshold = 1u << 20;
  config.db.flush_interval = 30.0;
  return config;
}

const Span* find_stage(const std::vector<Span>& spans,
                       std::string_view stage_name) {
  auto it = std::find_if(spans.begin(), spans.end(), [&](const Span& s) {
    return s.stage == stage_name;
  });
  return it == spans.end() ? nullptr : &*it;
}

TEST(PlatformTraceTest, LocalJobYieldsTheFullCausalChain) {
  sim::Environment env(11);
  Platform platform(env, traced_campus(2));
  platform.start();
  env.run_until(5.0);
  auto job = workload::make_training_job("traced", workload::cnn_small(),
                                         300.0 / 3600.0, "group-a",
                                         env.now());
  job.checkpoint_interval = 60.0;
  ASSERT_TRUE(platform.coordinator().submit(std::move(job)).is_ok());
  env.run_until(3600.0);
  ASSERT_GE(platform.coordinator().stats().jobs_completed, 1);

  const auto spans =
      platform.tracer().trace(Tracer::trace_for_job("traced"));
  ASSERT_FALSE(spans.empty());
  const Span* submit = find_stage(spans, stage::kSubmit);
  const Span* queue_wait = find_stage(spans, stage::kQueueWait);
  const Span* placement = find_stage(spans, stage::kPlacement);
  const Span* dispatch = find_stage(spans, stage::kDispatch);
  const Span* run = find_stage(spans, stage::kRun);
  ASSERT_NE(submit, nullptr);
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(placement, nullptr);
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(run, nullptr);

  // The chain: each stage parents to its causal predecessor.
  EXPECT_EQ(submit->parent_span, 0u);
  EXPECT_EQ(queue_wait->parent_span, submit->span_id);
  EXPECT_EQ(placement->parent_span, queue_wait->span_id);
  EXPECT_EQ(dispatch->parent_span, placement->span_id);
  EXPECT_EQ(run->parent_span, dispatch->span_id);
  EXPECT_EQ(submit->actor, "coordinator");
  EXPECT_LE(submit->start, run->start);
  EXPECT_GT(run->duration(), 0.0);

  // Checkpoints annotate the run as siblings — parented to the dispatch
  // span, never redirecting the chain.
  bool saw_checkpoint = false;
  for (const Span& span : spans) {
    if (span.stage != stage::kCheckpoint) continue;
    saw_checkpoint = true;
    EXPECT_EQ(span.parent_span, dispatch->span_id);
  }
  EXPECT_TRUE(saw_checkpoint);

  // The write-behind ledger joined the trace purely by key-derived id:
  // its group-commit spans are roots with ack -> durable timing.
  const Span* commit = find_stage(spans, stage::kDbGroupCommit);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->parent_span, 0u);
  EXPECT_EQ(commit->actor, "db");
  EXPECT_GE(commit->end, commit->start);
  // Every ledger entry the job produced commits on its trace, the
  // allocation rows included (a node's shard owns them, not the job's).
  std::set<std::string> committed;
  for (const Span& span : spans) {
    if (span.stage == stage::kDbGroupCommit) committed.insert(span.detail);
  }
  for (const char* op : {"enqueue", "allocation_open", "allocation_close"}) {
    EXPECT_TRUE(committed.contains(op)) << op;
  }
}

}  // namespace
}  // namespace gpunion::obs
