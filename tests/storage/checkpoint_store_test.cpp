#include "storage/checkpoint_store.h"

#include <gtest/gtest.h>

namespace gpunion::storage {
namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

TEST(CheckpointStoreTest, FirstCheckpointIsFull) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas", 100 * kGiB).is_ok());
  auto c = store.write("job", 2 * kGiB, 0.3, 0.1, 10.0);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->kind, CheckpointKind::kFull);
  EXPECT_EQ(c->stored_bytes, 2 * kGiB);
  EXPECT_EQ(c->storage_node, "nas");
  EXPECT_TRUE(checkpoint_intact(*c));
}

TEST(CheckpointStoreTest, IncrementalDeltasAreSmall) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas", 100 * kGiB).is_ok());
  ASSERT_TRUE(store.write("job", 2 * kGiB, 0.25, 0.1, 10.0).ok());
  auto c = store.write("job", 2 * kGiB, 0.25, 0.2, 20.0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->kind, CheckpointKind::kIncremental);
  // 25% dirty of 2 GiB + 64 KiB metadata.
  EXPECT_EQ(c->stored_bytes, kGiB / 2 + (64 << 10));
}

TEST(CheckpointStoreTest, FullSnapshotCadence) {
  CheckpointStoreConfig config;
  config.full_every = 4;
  CheckpointStore store(config);
  ASSERT_TRUE(store.add_node("nas", 1000 * kGiB).is_ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(store.write("job", kGiB, 0.3, i * 0.1, i).ok());
  }
  const auto& chain = store.chain("job");
  ASSERT_EQ(chain.size(), 9u);
  EXPECT_EQ(chain[0].kind, CheckpointKind::kFull);
  EXPECT_EQ(chain[4].kind, CheckpointKind::kFull);
  EXPECT_EQ(chain[8].kind, CheckpointKind::kFull);
  EXPECT_EQ(chain[1].kind, CheckpointKind::kIncremental);
}

TEST(CheckpointStoreTest, LatestReturnsNewest) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas", 100 * kGiB).is_ok());
  ASSERT_TRUE(store.write("job", kGiB, 0.3, 0.1, 1.0).ok());
  ASSERT_TRUE(store.write("job", kGiB, 0.3, 0.5, 2.0).ok());
  auto latest = store.latest("job");
  ASSERT_TRUE(latest.ok());
  EXPECT_DOUBLE_EQ(latest->progress, 0.5);
  EXPECT_EQ(latest->seq, 1u);
}

TEST(CheckpointStoreTest, LatestUnknownJob) {
  CheckpointStore store;
  EXPECT_EQ(store.latest("ghost").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, RestoreBytesSpansFullPlusDeltas) {
  CheckpointStoreConfig config;
  config.full_every = 8;
  CheckpointStore store(config);
  ASSERT_TRUE(store.add_node("nas", 1000 * kGiB).is_ok());
  ASSERT_TRUE(store.write("job", kGiB, 0.5, 0.1, 1.0).ok());  // full
  ASSERT_TRUE(store.write("job", kGiB, 0.5, 0.2, 2.0).ok());  // delta
  ASSERT_TRUE(store.write("job", kGiB, 0.5, 0.3, 3.0).ok());  // delta
  auto bytes = store.restore_bytes("job");
  ASSERT_TRUE(bytes.ok());
  const std::uint64_t delta = kGiB / 2 + (64 << 10);
  EXPECT_EQ(*bytes, kGiB + 2 * delta);
}

TEST(CheckpointStoreTest, PreferredNodeHonoured) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas-a", 100 * kGiB).is_ok());
  ASSERT_TRUE(store.add_node("nas-b", 100 * kGiB).is_ok());
  store.set_preference("job", {"nas-b"});
  auto c = store.write("job", kGiB, 0.3, 0.1, 1.0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->storage_node, "nas-b");
}

TEST(CheckpointStoreTest, PreferenceFallsBackWhenFull) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("tiny", 1 << 20).is_ok());  // 1 MiB: too small
  ASSERT_TRUE(store.add_node("big", 100 * kGiB).is_ok());
  store.set_preference("job", {"tiny"});
  auto c = store.write("job", kGiB, 0.3, 0.1, 1.0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->storage_node, "big");
}

TEST(CheckpointStoreTest, CapacityExhaustion) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas", kGiB).is_ok());
  ASSERT_TRUE(store.write("job-a", kGiB, 0.3, 0.1, 1.0).ok());
  auto c = store.write("job-b", kGiB, 0.3, 0.1, 2.0);
  EXPECT_EQ(c.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(CheckpointStoreTest, ForgetFreesSpace) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas", kGiB).is_ok());
  ASSERT_TRUE(store.write("job-a", kGiB, 0.3, 0.1, 1.0).ok());
  store.forget("job-a");
  EXPECT_EQ(store.total_stored_bytes(), 0u);
  EXPECT_TRUE(store.write("job-b", kGiB, 0.3, 0.1, 2.0).ok());
}

TEST(CheckpointStoreTest, GarbageCollectionKeepsRestorableChain) {
  CheckpointStoreConfig config;
  config.full_every = 4;
  CheckpointStore store(config);
  ASSERT_TRUE(store.add_node("nas", 1000 * kGiB).is_ok());
  for (int i = 0; i < 3 * kKeepPerJob; ++i) {
    ASSERT_TRUE(store.write("job", kGiB, 0.3, i * 0.02, i).ok());
  }
  const auto& chain = store.chain("job");
  // Trimmed to the budget plus at most the incrementals back to a full.
  EXPECT_LE(chain.size(), static_cast<std::size_t>(kKeepPerJob + 3));
  // The chain must still start at a full snapshot for restore.
  EXPECT_EQ(chain.front().kind, CheckpointKind::kFull);
  EXPECT_TRUE(store.restore_bytes("job").ok());
  // Latest seq preserved.
  auto latest = store.latest("job");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->seq, static_cast<std::uint64_t>(3 * kKeepPerJob - 1));
}

TEST(CheckpointStoreTest, DuplicateNodeRejected) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas", kGiB).is_ok());
  EXPECT_EQ(store.add_node("nas", kGiB).code(),
            util::StatusCode::kAlreadyExists);
}

TEST(CheckpointStoreTest, ZeroStateRejected) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("nas", kGiB).is_ok());
  EXPECT_EQ(store.write("job", 0, 0.3, 0.1, 1.0).status().code(),
            util::StatusCode::kInvalidArgument);
}

// Regression for the utilization-ordered placement index: across a long
// mixed write/forget workload the indexed pick must match the legacy
// linear least-utilized scan decision for decision, and the index must
// track every reserve/release (collect and forget included).
TEST(CheckpointStoreTest, UtilizationIndexMatchesLinearScanOracle) {
  CheckpointStoreConfig config;
  config.full_every = 2;
  CheckpointStore store(config);
  // Mixed capacities so used-fraction order diverges from free-bytes order.
  ASSERT_TRUE(store.add_node("small-a", 16 * kGiB).is_ok());
  ASSERT_TRUE(store.add_node("small-b", 16 * kGiB).is_ok());
  ASSERT_TRUE(store.add_node("big", 256 * kGiB).is_ok());
  ASSERT_TRUE(store.add_node("mid", 64 * kGiB).is_ok());

  auto oracle = [&store](std::uint64_t bytes) -> std::string {
    // The legacy scan: least used-fraction with space, id tiebreak.
    std::string best;
    double best_frac = 2.0;
    for (const auto& id : store.node_ids()) {
      const StorageNode* node = store.node(id);
      if (node->free_bytes() < bytes) continue;
      const double frac = static_cast<double>(node->used_bytes()) /
                          static_cast<double>(node->capacity_bytes());
      if (frac < best_frac) {
        best_frac = frac;
        best = id;
      }
    }
    return best;
  };

  // Each job outgrows the GC budget between forgets, so collect's
  // releases are part of the workload.
  int collections = 0;
  for (int round = 0; round < 240; ++round) {
    const std::string job = "job-" + std::to_string(round % 7);
    const std::uint64_t bytes = (1 + round % 3) * (kGiB / 2);
    const std::string expected = oracle(bytes);
    const std::uint64_t stored_before = store.total_stored_bytes();
    auto written = store.write(job, bytes, 1.0, 0.5, round);
    if (expected.empty()) {
      EXPECT_FALSE(written.ok()) << "round " << round;
      continue;
    }
    ASSERT_TRUE(written.ok()) << "round " << round << ": "
                              << written.status();
    EXPECT_EQ(written->storage_node, expected) << "round " << round;
    if (store.total_stored_bytes() < stored_before + written->stored_bytes) {
      ++collections;
    }
    if (round % 31 == 30) {
      store.forget("job-" + std::to_string(round % 7));
    }
  }
  EXPECT_GT(collections, 0);
}

TEST(CheckpointStoreTest, IndexFollowsForgetReleases) {
  CheckpointStore store;
  ASSERT_TRUE(store.add_node("a", 10 * kGiB).is_ok());
  ASSERT_TRUE(store.add_node("b", 10 * kGiB).is_ok());
  // Fill `a` so `b` becomes least utilized.
  ASSERT_EQ(store.write("job-a", 4 * kGiB, 1.0, 0.1, 1.0)->storage_node,
            "a");
  ASSERT_EQ(store.write("x", kGiB, 1.0, 0.1, 2.0)->storage_node, "b");
  ASSERT_EQ(store.write("y", kGiB, 1.0, 0.1, 3.0)->storage_node, "b");
  ASSERT_EQ(store.write("z", kGiB, 1.0, 0.1, 4.0)->storage_node, "b");
  // Freeing `a` must re-file it at the front of the order.
  store.forget("job-a");
  EXPECT_EQ(store.write("w", kGiB, 1.0, 0.1, 5.0)->storage_node, "a");
}

}  // namespace
}  // namespace gpunion::storage
