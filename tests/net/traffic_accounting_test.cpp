// Traffic accounting: window queries, transmission spreading, the paced
// backup channel and its backlog signal.
#include <gtest/gtest.h>

#include "net/sim_network.h"

namespace gpunion::net {
namespace {

struct Fixture {
  sim::Environment env{3};
  SimNetwork net{env, {}};
  void attach(const NodeId& id) {
    net.register_endpoint(id, [](Message&&) {});
  }
  void send(TrafficClass klass, std::uint64_t bytes) {
    Message m{/*from=*/"a", /*to=*/"b", klass, bytes, {}};
    ASSERT_TRUE(net.send(std::move(m)).is_ok());
  }
};

TEST(TrafficAccountingTest, WindowQueriesSumBuckets) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  f.send(TrafficClass::kControl, 1000);
  f.env.run_until(120.0);
  f.send(TrafficClass::kControl, 500);
  f.env.run();
  EXPECT_EQ(f.net.bytes_in_window(TrafficClass::kControl, 0, 60), 1000u);
  EXPECT_EQ(f.net.bytes_in_window(TrafficClass::kControl, 60, 200), 500u);
  EXPECT_EQ(f.net.bytes_in_window(TrafficClass::kControl, 0, 200), 1500u);
}

TEST(TrafficAccountingTest, SpreadPreservesTotals) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  // 30 GB migration at 1 Gbps spans ~4 buckets; the sum must be exact.
  f.send(TrafficClass::kMigration, 30'000'000'000ULL);
  f.env.run();
  std::uint64_t total = 0;
  for (int bucket = 0; bucket < 10; ++bucket) {
    total += f.net.bytes_in_window(TrafficClass::kMigration,
                                   bucket * 60.0, bucket * 60.0 + 59.999);
  }
  EXPECT_EQ(total, 30'000'000'000ULL);
  // And no single 60 s bucket can exceed 1 Gbps x 60 s of this flow.
  for (int bucket = 0; bucket < 10; ++bucket) {
    EXPECT_LE(f.net.bytes_in_window(TrafficClass::kMigration, bucket * 60.0,
                                    bucket * 60.0 + 59.999),
              7'500'000'001ULL);
  }
}

TEST(TrafficAccountingTest, BackupChannelSerializesFlows) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  // Two 3.75 GB backups at the 0.5 Gbps channel: 60 s each, FIFO.
  f.send(TrafficClass::kCheckpoint, 3'750'000'000ULL);
  f.send(TrafficClass::kCheckpoint, 3'750'000'000ULL);
  EXPECT_NEAR(f.net.backup_lag(0.0), 120.0, 1.0);
  f.env.run_until(60.0);
  EXPECT_NEAR(f.net.backup_lag(60.0), 60.0, 1.0);
  f.env.run();
  EXPECT_GT(f.env.now(), 119.0);
  EXPECT_DOUBLE_EQ(f.net.backup_lag(f.env.now()), 0.0);
}

TEST(TrafficAccountingTest, BackupChannelCapsClassUtilization) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  for (int i = 0; i < 6; ++i) {
    f.send(TrafficClass::kCheckpoint, 3'750'000'000ULL);
  }
  f.env.run();
  // 0.5 Gbps channel on a 10 Gbps backbone: the class can never exceed 5%.
  const double peak = f.net.peak_class_utilization(
      {TrafficClass::kCheckpoint}, 0, f.env.now());
  EXPECT_LE(peak, 0.051);
  EXPECT_GT(peak, 0.04);  // and it actually uses its budget
}

TEST(TrafficAccountingTest, DisabledPacingUsesBulkPath) {
  sim::Environment env(4);
  SimNetworkConfig config;
  config.backup_pace_gbps = 0.0;
  SimNetwork net(env, config);
  net.register_endpoint("a", [](Message&&) {});
  net.register_endpoint("b", [](Message&&) {});
  // 1 s at the 1 Gbps line rate.
  Message m{"a", "b", TrafficClass::kCheckpoint, 125'000'000ULL, {}};
  ASSERT_TRUE(net.send(std::move(m)).is_ok());
  env.run();
  EXPECT_LT(env.now(), 1.5);  // line rate, not the (absent) pace
  EXPECT_DOUBLE_EQ(net.backup_lag(env.now()), 0.0);
}

TEST(TrafficAccountingTest, FederationChannelSerializesAndCapsClass) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  // Two 7.5 GB cross-campus shipments at the 1 Gbps WAN channel: 60 s
  // each, FIFO — the second queues behind the first.
  f.send(TrafficClass::kFederation, 7'500'000'000ULL);
  f.send(TrafficClass::kFederation, 7'500'000'000ULL);
  EXPECT_NEAR(f.net.federation_lag(0.0), 120.0, 1.0);
  f.env.run_until(60.0);
  EXPECT_NEAR(f.net.federation_lag(60.0), 60.0, 1.0);
  f.env.run();
  EXPECT_GT(f.env.now(), 119.0);
  EXPECT_DOUBLE_EQ(f.net.federation_lag(f.env.now()), 0.0);
  // 1 Gbps channel on a 10 Gbps backbone: the class stays within 10%, and
  // its bytes are accounted under their own class.
  const double peak = f.net.peak_class_utilization(
      {TrafficClass::kFederation}, 0, f.env.now());
  EXPECT_LE(peak, 0.101);
  EXPECT_GT(peak, 0.09);
  EXPECT_EQ(f.net.bytes_sent(TrafficClass::kFederation), 15'000'000'000ULL);
  EXPECT_EQ(f.net.bytes_sent(TrafficClass::kCheckpoint), 0u);
  // The federation channel is independent of the backup channel.
  EXPECT_DOUBLE_EQ(f.net.backup_lag(f.env.now()), 0.0);
}

TEST(TrafficAccountingTest, DisabledFederationPacingUsesBulkPath) {
  sim::Environment env(5);
  SimNetworkConfig config;
  config.federation_wan_gbps = 0.0;
  SimNetwork net(env, config);
  net.register_endpoint("a", [](Message&&) {});
  net.register_endpoint("b", [](Message&&) {});
  // 1 s at the 1 Gbps line rate.
  Message m{"a", "b", TrafficClass::kFederation, 125'000'000ULL, {}};
  ASSERT_TRUE(net.send(std::move(m)).is_ok());
  env.run();
  EXPECT_LT(env.now(), 1.5);  // line rate, not the (absent) pace
  EXPECT_DOUBLE_EQ(net.federation_lag(env.now()), 0.0);
}

TEST(TrafficAccountingTest, ClassNamesStable) {
  EXPECT_EQ(traffic_class_name(TrafficClass::kCheckpoint), "checkpoint");
  EXPECT_EQ(traffic_class_name(TrafficClass::kMigration), "migration");
  EXPECT_EQ(traffic_class_name(TrafficClass::kUserData), "user_data");
  EXPECT_EQ(traffic_class_name(TrafficClass::kFederation), "federation");
}

}  // namespace
}  // namespace gpunion::net
