// Determinism regression: the simulation must yield bit-identical event
// fire traces across repeated runs, and must reproduce the recorded
// (time, insertion) fire order of three golden scenarios.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gpunion/client.h"
#include "gpunion/config.h"
#include "gpunion/platform.h"
#include "hw/node.h"
#include "sched/strategies.h"
#include "sim/environment.h"
#include "util/ids.h"
#include "workload/profiles.h"

namespace gpunion::sim {
namespace {

struct FireRecord {
  double time;
  EventId id;
  bool operator==(const FireRecord& other) const {
    return time == other.time && id == other.id;
  }
};

/// Runs the golden scenario — a paper campus with training + interactive
/// load and one churn event — and returns the full event fire trace.
std::vector<FireRecord> golden_trace() {
  Environment env(42);
  std::vector<FireRecord> trace;
  env.set_fire_observer([&trace](util::SimTime t, EventId id) {
    trace.push_back({t, id});
  });
  CampusConfig campus = paper_campus();
  Platform platform(env, campus);
  platform.start();
  env.run_until(10.0);

  Client vision(platform, "vision");
  Client nlp(platform, "nlp");
  auto training = vision.submit_training(workload::cnn_small(), 2.0);
  auto notebook = nlp.request_session(0.5);
  EXPECT_TRUE(training.ok());
  EXPECT_TRUE(notebook.ok());

  workload::Interruption event;
  event.machine_id = Platform::machine_id_for("ws-vision-1");
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(10);
  event.at = util::minutes(5);
  platform.schedule_interruption(event.at, event);

  env.run_until(util::minutes(45));
  return trace;
}

TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const auto a = golden_trace();
  const auto b = golden_trace();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "trace diverged at event " << i;
  }
}

/// API-fronted golden scenario: a multi-tenant burst through the request
/// plane (token bucket, DRF drain, threshold drains, group commits), plus
/// churn.  Returns the event fire trace AND the API dispatch order — the
/// request plane must not introduce any nondeterminism of its own.
std::pair<std::vector<FireRecord>, std::vector<std::string>>
api_golden_trace() {
  Environment env(42);
  std::vector<FireRecord> trace;
  env.set_fire_observer([&trace](util::SimTime t, EventId id) {
    trace.push_back({t, id});
  });
  CampusConfig campus = paper_campus();
  campus.api.enabled = true;
  campus.api.admission_rate = 50.0;
  campus.api.admission_burst = 20.0;
  campus.api.drain_interval = 0.5;
  campus.api.drain_batch = 4;
  campus.api.default_quota.max_in_flight = 3;
  campus.api.default_quota.max_queued = 8;
  campus.api.tenant_quotas["vision"].weight = 2.0;
  campus.api.tenant_quotas["vision"].max_in_flight = 3;
  campus.api.tenant_quotas["vision"].max_queued = 8;
  Platform platform(env, campus);
  std::vector<std::string> dispatch_order;
  platform.start();
  platform.api().set_dispatch_observer(
      [&dispatch_order](const std::string& tenant, const std::string& id) {
        dispatch_order.push_back(tenant + "/" + id);
      });
  env.run_until(10.0);

  // Three tenants race a burst into the plane at one instant: drain order
  // is decided purely by DRF shares and the name tie-break.
  const char* tenants[] = {"vision", "nlp", "speech"};
  int next = 0;
  for (int round = 0; round < 4; ++round) {
    for (const char* tenant : tenants) {
      std::vector<workload::JobSpec> burst;
      for (int j = 0; j < 3; ++j) {
        burst.push_back(workload::make_training_job(
            std::string(tenant) + "-job-" + std::to_string(next++),
            workload::cnn_small(), 0.05, "group-vision", env.now()));
      }
      platform.api().submit_batch(tenant, std::move(burst));
    }
    env.run_until(env.now() + 30.0);
  }

  workload::Interruption event;
  event.machine_id = Platform::machine_id_for("ws-vision-1");
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(10);
  event.at = env.now() + 60.0;
  platform.schedule_interruption(event.at, event);

  env.run_until(util::minutes(45));
  platform.api().drain_to_quiescence();
  return {std::move(trace), std::move(dispatch_order)};
}

TEST(DeterminismTest, ApiFrontedCampusIsBitIdentical) {
  const auto a = api_golden_trace();
  const auto b = api_golden_trace();
  ASSERT_FALSE(a.first.empty());
  ASSERT_FALSE(a.second.empty()) << "request plane never dispatched";
  ASSERT_EQ(a.second, b.second) << "API drain order diverged";
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    ASSERT_EQ(a.first[i], b.first[i]) << "trace diverged at event " << i;
  }
}

/// Time-slicing golden scenario: workstations run nvshare-mode seats under
/// the adaptive_sharing strategy, so the trace includes quantum ticks,
/// rotation swap pauses and completion re-arming — all of which must stay
/// bit-replayable.
std::vector<FireRecord> timeslice_golden_trace() {
  Environment env(42);
  std::vector<FireRecord> trace;
  env.set_fire_observer([&trace](util::SimTime t, EventId id) {
    trace.push_back({t, id});
  });
  CampusConfig campus = paper_campus();
  campus.coordinator.strategy = std::string(sched::kAdaptiveSharing);
  for (auto& node : campus.nodes) {
    if (node.spec.gpus.size() == 1) {
      node.spec = hw::with_timeslicing(std::move(node.spec), 4);
    }
  }
  Platform platform(env, campus);
  platform.start();
  env.run_until(10.0);

  Client vision(platform, "vision");
  Client nlp(platform, "nlp");
  Client theory(platform, "theory");
  // Several sessions pack into time-slice seats and rotate; one training
  // job takes a whole device alongside.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(theory.request_session(0.5).ok());
  }
  EXPECT_TRUE(nlp.request_session(0.25).ok());
  EXPECT_TRUE(vision.submit_training(workload::cnn_small(), 1.0).ok());

  workload::Interruption event;
  event.machine_id = Platform::machine_id_for("ws-vision-1");
  event.kind = agent::DepartureKind::kTemporary;
  event.downtime = util::minutes(10);
  event.at = util::minutes(8);
  platform.schedule_interruption(event.at, event);

  env.run_until(util::minutes(45));
  return trace;
}

TEST(DeterminismTest, TimesliceCampusIsBitIdentical) {
  const auto a = timeslice_golden_trace();
  const auto b = timeslice_golden_trace();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "trace diverged at event " << i;
  }
}

/// 64-bit FNV-1a over a byte stream, from the offset basis the project's
/// other hashes use (util::fnv1a64, perfbench's outcome digest).
class Fnv1a {
 public:
  void add_byte(std::uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
  void add_u64_le(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      add_byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void add_string(const std::string& text) {
    for (unsigned char c : text) add_byte(c);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = util::kFnv1aBasis;
};

/// Digest of a fire trace: per event, the fire time's IEEE-754 bits and
/// then the event id, each as 8 little-endian bytes.
std::string trace_digest(const std::vector<FireRecord>& trace) {
  Fnv1a fnv;
  for (const FireRecord& record : trace) {
    fnv.add_u64_le(std::bit_cast<std::uint64_t>(record.time));
    fnv.add_u64_le(record.id);
  }
  return fnv.hex();
}

TEST(DeterminismTest, GoldenTracesMatchRecordedDigests) {
  // The recorded (time, insertion) fire order of each golden scenario
  // (g++ 12.2, glibc 2.36).  Any change that moves one of these moves
  // simulated outcomes, so it must be a declared digest rebase; the
  // failure message carries the computed values to paste here.
  const std::vector<FireRecord> golden = golden_trace();
  EXPECT_EQ(golden.size(), 35187u) << "golden event count";
  EXPECT_EQ(trace_digest(golden), "d645e83f21c75563") << "golden digest";

  const auto [api, dispatches] = api_golden_trace();
  EXPECT_EQ(api.size(), 40884u) << "api event count";
  EXPECT_EQ(trace_digest(api), "6f7a2a11fb5f1b38") << "api digest";
  // Over the recorded "tenant/job-id" entries, concatenated in order.
  Fnv1a dispatch_digest;
  for (const std::string& job : dispatches) dispatch_digest.add_string(job);
  EXPECT_EQ(dispatches.size(), 33u) << "api dispatch count";
  EXPECT_EQ(dispatch_digest.hex(), "4371a6edd53d9da9")
      << "api dispatch-order digest";

  const std::vector<FireRecord> timeslice = timeslice_golden_trace();
  EXPECT_EQ(timeslice.size(), 35312u) << "timeslice event count";
  EXPECT_EQ(trace_digest(timeslice), "063b1580cf65630b")
      << "timeslice digest";
}

TEST(DeterminismTest, InvariantSeedReplayability) {
  // The contract GPUNION_INVARIANT_SEED harnesses rely on: same seed, same
  // config => same derived RNG streams AND same event schedule.
  Environment env1(1234);
  Environment env2(1234);
  auto rng1 = env1.fork_rng("chaos");
  auto rng2 = env2.fork_rng("chaos");
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(rng1.next_u64(), rng2.next_u64());
  }
}

}  // namespace
}  // namespace gpunion::sim
