#include "util/ids.h"

#include <gtest/gtest.h>

#include <set>

#include "db/sharded_database.h"
#include "obs/trace.h"

namespace gpunion::util {
namespace {

// Trace ids, DB shard routing and recorded digests depend on the exact
// values of the project's FNV-1a, offset basis included.
TEST(IdsTest, Fnv1aValuesArePinned) {
  static_assert(fnv1a64("") == kFnv1aBasis);
  EXPECT_EQ(fnv1a64(""), 1469598103934665603ULL);
  EXPECT_NE(fnv1a64(""), 14695981039346656037ULL);  // not the stock basis
  EXPECT_EQ(fnv1a64("job-1"), 2298265550616927036ULL);
  // Its users return the values they returned before they shared it.
  EXPECT_EQ(obs::Tracer::trace_for_job("job-1"), 2298265550616927036ULL);
  EXPECT_EQ(fnv1a64("job-1") % 7, 5u);
  EXPECT_EQ(fnv1a64("train-0042") % 7, 3u);
  EXPECT_EQ(fnv1a64("m-1") % 7, 0u);
  // The database routes rows by the same hash over its shards.
  const db::ShardedDatabase database;
  EXPECT_EQ(database.shard_for_job("train-0042"),
            fnv1a64("train-0042") % db::kShardCount);
  EXPECT_EQ(database.shard_for_node("m-1"), fnv1a64("m-1") % db::kShardCount);
}

TEST(IdsTest, MachineIdDeterministic) {
  EXPECT_EQ(make_machine_id("ws-01", "salt"), make_machine_id("ws-01", "salt"));
}

TEST(IdsTest, MachineIdDependsOnHostnameAndSalt) {
  EXPECT_NE(make_machine_id("ws-01", "salt"), make_machine_id("ws-02", "salt"));
  EXPECT_NE(make_machine_id("ws-01", "a"), make_machine_id("ws-01", "b"));
}

TEST(IdsTest, MachineIdFormat) {
  const std::string id = make_machine_id("ws-01", "salt");
  EXPECT_EQ(id.size(), 2u + 16u);
  EXPECT_EQ(id.substr(0, 2), "m-");
  for (char c : id.substr(2)) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(IdsTest, AuthTokensUniqueAndHex) {
  Rng rng(42);
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    const std::string token = make_auth_token(rng);
    EXPECT_EQ(token.size(), 32u);
    for (char c : token) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    }
    EXPECT_TRUE(seen.insert(token).second) << "duplicate token";
  }
}

TEST(IdsTest, SequenceCountsUp) {
  IdSequence seq("job");
  EXPECT_EQ(seq.next(), "job-0");
  EXPECT_EQ(seq.next(), "job-1");
  EXPECT_EQ(seq.count(), 2u);
}

}  // namespace
}  // namespace gpunion::util
