// Cross-region tracing: a job forwarded A -> B (and chained on to C when
// B dies) yields ONE trace whose spans come from every region's gateway
// and coordinator, with the WAN edge stitched by the transfer span id that
// rides JobTransfer.  Plus the determinism contract: the encoded span
// stream is bit-identical across repeated runs.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpunion/federated_platform.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "workload/profiles.h"

namespace gpunion {
namespace {

CampusConfig small_campus(const std::string& prefix, int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back(
        {hw::workstation_3090(prefix + "-ws-" + std::to_string(i)),
         "group-" + prefix});
  }
  config.storage.push_back({"nas-" + prefix, 512ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;  // off the control plane
  config.scrape_interval = 1e9;
  return config;
}

federation::RegionPolicy fast_policy() {
  federation::RegionPolicy policy;
  policy.digest_interval = 5.0;
  policy.forward_after = 10.0;
  policy.forward_timeout = 10.0;
  policy.forward_retry_backoff = 30.0;
  return policy;
}

RegionConfig make_region(const std::string& name, int nodes) {
  return RegionConfig{name, small_campus(name, nodes), fast_policy()};
}

workload::JobSpec training(const std::string& id, const std::string& group,
                           double seconds, util::SimTime at) {
  auto job = workload::make_training_job(id, workload::cnn_small(),
                                         seconds / 3600.0, group, at);
  job.checkpoint_interval = 30.0;
  return job;
}

/// The A -> B overflow scenario from the mesh suite: alpha's one GPU is
/// pinned, so "wanderer" must leave; bravo is closest and admits it.
FederationConfig overflow_config() {
  FederationConfig config;
  config.regions.push_back(make_region("alpha", 1));
  config.regions.push_back(make_region("bravo", 2));
  config.regions.push_back(make_region("charlie", 2));
  config.links.push_back({"alpha", "bravo", 0.002});
  config.links.push_back({"alpha", "charlie", 0.030});
  config.links.push_back({"bravo", "charlie", 0.030});
  return config;
}

void submit_overflow_pair(FederatedPlatform& fed, sim::Environment& env) {
  env.run_until(5.0);
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("pin", "group-alpha", 2000.0, env.now()))
                  .is_ok());
  ASSERT_TRUE(fed.region("alpha")
                  .coordinator()
                  .submit(training("wanderer", "group-alpha", 600.0,
                                   env.now()))
                  .is_ok());
}

const obs::Span* find_stage(const std::vector<obs::Span>& spans,
                            std::string_view stage_name) {
  auto it = std::find_if(spans.begin(), spans.end(), [&](const obs::Span& s) {
    return s.stage == stage_name;
  });
  return it == spans.end() ? nullptr : &*it;
}

std::vector<const obs::Span*> all_of_stage(const std::vector<obs::Span>& spans,
                                           std::string_view stage_name) {
  std::vector<const obs::Span*> out;
  for (const obs::Span& span : spans) {
    if (span.stage == stage_name) out.push_back(&span);
  }
  return out;
}

TEST(FederationTraceTest, ForwardedJobIsOneTraceWithWanEdgesIntact) {
  sim::Environment env(23);
  FederatedPlatform fed(env, overflow_config());
  fed.start();
  submit_overflow_pair(fed, env);
  env.run_until(200.0);
  ASSERT_NE(fed.region("bravo").coordinator().job("wanderer"), nullptr)
      << "test setup: the job should be hosted in bravo by now";

  const auto spans =
      fed.tracer().trace(obs::Tracer::trace_for_job("wanderer"));
  ASSERT_FALSE(spans.empty());
  for (const obs::Span& span : spans) {
    EXPECT_EQ(span.trace_id, obs::Tracer::trace_for_job("wanderer"));
  }

  // Alpha's side of the hand-off: withdraw -> offer -> transfer, all from
  // alpha's gateway, chained onto the job's local spans.
  const obs::Span* withdraw = find_stage(spans, obs::stage::kFedWithdraw);
  const obs::Span* offer = find_stage(spans, obs::stage::kFedOffer);
  const obs::Span* transfer = find_stage(spans, obs::stage::kFedTransfer);
  const obs::Span* admit = find_stage(spans, obs::stage::kFedAdmit);
  ASSERT_NE(withdraw, nullptr);
  ASSERT_NE(offer, nullptr);
  ASSERT_NE(transfer, nullptr);
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(withdraw->actor, "gw-alpha");
  EXPECT_EQ(offer->actor, "gw-alpha");
  EXPECT_EQ(transfer->actor, "gw-alpha");
  EXPECT_NE(withdraw->parent_span, 0u);  // chained onto the local spans
  EXPECT_EQ(offer->parent_span, withdraw->span_id);

  // THE cross-region edge: bravo's admit span parents to alpha's transfer
  // span (whose id crossed the WAN inside JobTransfer while still open).
  EXPECT_EQ(admit->actor, "gw-bravo");
  EXPECT_EQ(admit->parent_span, transfer->span_id);

  // And bravo's re-submit chains off the admit, so the remote execution
  // hangs under the WAN hop, not as a disconnected root.
  const obs::Span* remote_submit = nullptr;
  for (const obs::Span& span : spans) {
    if (span.stage == obs::stage::kSubmit &&
        span.actor == "coordinator-bravo") {
      remote_submit = &span;
    }
  }
  ASSERT_NE(remote_submit, nullptr);
  EXPECT_EQ(remote_submit->parent_span, admit->span_id);

  // The origin submit is still the trace's root.
  const obs::Span* origin_submit = find_stage(spans, obs::stage::kSubmit);
  ASSERT_NE(origin_submit, nullptr);
  EXPECT_EQ(origin_submit->actor, "coordinator-alpha");
  EXPECT_EQ(origin_submit->parent_span, 0u);

  std::set<std::string> actors;
  for (const obs::Span& span : spans) actors.insert(span.actor);
  EXPECT_TRUE(actors.count("coordinator-alpha"));
  EXPECT_TRUE(actors.count("gw-alpha"));
  EXPECT_TRUE(actors.count("gw-bravo"));
  EXPECT_TRUE(actors.count("coordinator-bravo"));
}

TEST(FederationTraceTest, ChainedReforwardStitchesThreeRegions) {
  sim::Environment env(23);
  FederatedPlatform fed(env, overflow_config());
  fed.start();
  submit_overflow_pair(fed, env);
  env.run_until(200.0);
  ASSERT_NE(fed.region("bravo").coordinator().job("wanderer"), nullptr);

  // Bravo goes dark past the horizon: its displaced guest chains on to
  // charlie, and the trace keeps growing — one trace, three regions.
  fed.inject_region_outage("bravo", 5000.0);
  env.run_until(1200.0);
  const sched::JobRecord* record =
      fed.region("charlie").coordinator().job("wanderer");
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->phase, sched::JobPhase::kCompleted);

  const auto spans =
      fed.tracer().trace(obs::Tracer::trace_for_job("wanderer"));
  const auto transfers = all_of_stage(spans, obs::stage::kFedTransfer);
  const auto admits = all_of_stage(spans, obs::stage::kFedAdmit);
  ASSERT_GE(transfers.size(), 2u);  // alpha -> bravo, then bravo -> charlie
  ASSERT_GE(admits.size(), 2u);

  // Every admit hangs off a transfer span from THIS trace: the WAN edge
  // held on both hops.
  std::set<std::uint64_t> transfer_ids;
  for (const obs::Span* t : transfers) transfer_ids.insert(t->span_id);
  for (const obs::Span* a : admits) {
    EXPECT_TRUE(transfer_ids.count(a->parent_span))
        << "admit by " << a->actor << " is detached from the trace";
  }

  std::set<std::string> actors;
  for (const obs::Span& span : spans) actors.insert(span.actor);
  EXPECT_TRUE(actors.count("gw-alpha"));
  EXPECT_TRUE(actors.count("gw-bravo"));
  EXPECT_TRUE(actors.count("gw-charlie"));
  EXPECT_TRUE(actors.count("coordinator-charlie"));

  // The completing run happened in charlie.
  bool charlie_ran = false;
  for (const obs::Span& span : spans) {
    if (span.stage == obs::stage::kRun &&
        span.actor == "coordinator-charlie") {
      charlie_ran = true;
    }
  }
  EXPECT_TRUE(charlie_ran);
}

std::vector<std::uint8_t> encoded_span_stream() {
  sim::Environment env(23);
  FederatedPlatform fed(env, overflow_config());
  fed.start();
  env.run_until(5.0);
  (void)fed.region("alpha").coordinator().submit(
      training("pin", "group-alpha", 2000.0, env.now()));
  (void)fed.region("alpha").coordinator().submit(
      training("wanderer", "group-alpha", 600.0, env.now()));
  env.run_until(300.0);
  return obs::encode_spans(fed.tracer().snapshot());
}

TEST(FederationTraceTest, SpanStreamBitIdenticalAcrossRuns) {
  const auto first = encoded_span_stream();
  ASSERT_FALSE(first.empty());
  std::vector<obs::Span> decoded;
  ASSERT_TRUE(obs::decode_spans(first, &decoded));
  ASSERT_FALSE(decoded.empty());
  // Same seed -> the same bytes.
  EXPECT_EQ(encoded_span_stream(), first);
}

}  // namespace
}  // namespace gpunion
