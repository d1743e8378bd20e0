// Parameterized sweeps over checkpoint-store configurations: the restore
// invariants must hold for every full-snapshot cadence, below, at and above
// the per-job GC budget (kKeepPerJob).
#include <gtest/gtest.h>

#include "storage/checkpoint_store.h"

namespace gpunion::storage {
namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

struct StoreParams {
  int full_every;
  int writes;
};

class CheckpointStoreParamTest
    : public ::testing::TestWithParam<StoreParams> {};

TEST_P(CheckpointStoreParamTest, ChainAlwaysRestorable) {
  const auto& params = GetParam();
  CheckpointStoreConfig config;
  config.full_every = params.full_every;
  CheckpointStore store(config);
  ASSERT_TRUE(store.add_node("nas", 4096 * kGiB).is_ok());

  for (int i = 0; i < params.writes; ++i) {
    const double progress = static_cast<double>(i + 1) / params.writes;
    auto c = store.write("job", kGiB, 0.3, progress, i * 60.0);
    ASSERT_TRUE(c.ok()) << "write " << i << ": " << c.status();

    // Invariant 1: the chain always starts with a full snapshot.
    const auto& chain = store.chain("job");
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front().kind, CheckpointKind::kFull);

    // Invariant 2: restore bytes are always computable and bounded by the
    // total stored bytes for the job.
    auto bytes = store.restore_bytes("job");
    ASSERT_TRUE(bytes.ok());
    std::uint64_t chain_total = 0;
    for (const auto& checkpoint : chain) {
      chain_total += checkpoint.stored_bytes;
    }
    EXPECT_LE(*bytes, chain_total);
    EXPECT_GE(*bytes, kGiB);  // at least the full snapshot

    // Invariant 3: the latest checkpoint is the newest and intact.
    auto latest = store.latest("job");
    ASSERT_TRUE(latest.ok());
    EXPECT_DOUBLE_EQ(latest->progress, progress);
    EXPECT_TRUE(checkpoint_intact(*latest));

    // Invariant 4: GC respects the per-job budget (modulo keeping a
    // restorable prefix back to the previous full snapshot).
    EXPECT_LE(static_cast<int>(chain.size()),
              kKeepPerJob + params.full_every);

    // Invariant 5: sequence numbers strictly increase along the chain.
    for (std::size_t k = 1; k < chain.size(); ++k) {
      EXPECT_EQ(chain[k].seq, chain[k - 1].seq + 1);
    }
  }

  // Accounting: forgetting the job releases every byte.
  store.forget("job");
  EXPECT_EQ(store.total_stored_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CadenceAndBudgetSweep, CheckpointStoreParamTest,
    ::testing::Values(StoreParams{1, 40},    // always-full
                      StoreParams{4, 60},    // frequent fulls
                      StoreParams{8, 60},    // the default shape
                      StoreParams{16, 70},   // cadence == budget
                      StoreParams{24, 90},   // budget < cadence
                      StoreParams{40, 130}), // sparse fulls
    [](const ::testing::TestParamInfo<StoreParams>& info) {
      return "full" + std::to_string(info.param.full_every) + "_n" +
             std::to_string(info.param.writes);
    });

}  // namespace
}  // namespace gpunion::storage
