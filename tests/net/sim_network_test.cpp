#include "net/sim_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <variant>
#include <vector>

namespace gpunion::net {
namespace {

struct Fixture {
  sim::Environment env{1};
  SimNetwork net{env, {}};
  std::vector<Message> received;

  void attach(const NodeId& id) {
    net.register_endpoint(id, [this](Message&& m) {
      received.push_back(std::move(m));
    });
  }
};

TEST(SimNetworkTest, DeliversWithLatency) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 100;
  m.payload = agent::ReturnNotice{"7"};
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  EXPECT_TRUE(f.received.empty());  // not synchronous
  f.env.run();
  ASSERT_EQ(f.received.size(), 1u);
  EXPECT_EQ(std::get<agent::ReturnNotice>(f.received[0].payload).machine_id,
            "7");
  EXPECT_GT(f.env.now(), 0.0);      // latency elapsed
  EXPECT_LT(f.env.now(), 0.01);     // but small for 100 bytes on a LAN
}

TEST(SimNetworkTest, UnknownDestinationFails) {
  Fixture f;
  f.attach("a");
  Message m;
  m.from = "a";
  m.to = "ghost";
  EXPECT_EQ(f.net.send(std::move(m)).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(f.net.messages_dropped(), 1u);
}

TEST(SimNetworkTest, LargeTransferTakesBandwidthTime) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 1250000000ULL;  // 1.25 GB == 10 s on a 1 Gbps access link
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  f.env.run();
  EXPECT_GT(f.env.now(), 10.0);
  EXPECT_LT(f.env.now(), 13.0);  // + backbone (1s at 10 Gbps) + dst link
}

TEST(SimNetworkTest, ConcurrentTransfersQueueOnLink) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  for (int i = 0; i < 2; ++i) {
    Message m;
    m.from = "a";
    m.to = "b";
    m.traffic_class = TrafficClass::kMigration;  // bulk: subject to queueing
    m.size_bytes = 125000000ULL;  // 1 s each on the 1 Gbps source link
    ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  }
  f.env.run();
  ASSERT_EQ(f.received.size(), 2u);
  EXPECT_GT(f.env.now(), 2.0);  // serialized, not parallel
}

TEST(SimNetworkTest, ControlPlaneBypassesBulkQueue) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  Message bulk;
  bulk.from = "a";
  bulk.to = "b";
  bulk.traffic_class = TrafficClass::kMigration;
  bulk.size_bytes = 1250000000ULL;  // 10 s on the access link
  ASSERT_TRUE(f.net.send(std::move(bulk)).is_ok());
  Message control;
  control.from = "a";
  control.to = "b";
  control.traffic_class = TrafficClass::kControl;
  control.size_bytes = 300;
  control.payload = agent::ReturnNotice{"42"};
  ASSERT_TRUE(f.net.send(std::move(control)).is_ok());
  f.env.run(1);  // first delivery
  ASSERT_EQ(f.received.size(), 1u);
  // The control message arrived first.
  EXPECT_EQ(std::get<agent::ReturnNotice>(f.received[0].payload).machine_id,
            "42");
  EXPECT_LT(f.env.now(), 0.1);
}

TEST(SimNetworkTest, PartitionDropsSilently) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  f.net.set_partitioned("b", true);
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 10;
  EXPECT_TRUE(f.net.send(std::move(m)).is_ok());  // no error: silent loss
  f.env.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.messages_dropped(), 1u);
}

TEST(SimNetworkTest, PartitionHealsAndDelivers) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  f.net.set_partitioned("b", true);
  f.net.set_partitioned("b", false);
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 10;
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  f.env.run();
  EXPECT_EQ(f.received.size(), 1u);
}

TEST(SimNetworkTest, InFlightDroppedWhenEndpointUnregisters) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 125000000ULL;  // ~1s in flight
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  f.net.unregister_endpoint("b");
  f.env.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_EQ(f.net.messages_dropped(), 1u);
}

TEST(SimNetworkTest, AccountsBytesPerClass) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 1000;
  m.traffic_class = TrafficClass::kCheckpoint;
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  Message m2;
  m2.from = "a";
  m2.to = "b";
  m2.size_bytes = 500;
  m2.traffic_class = TrafficClass::kHeartbeat;
  ASSERT_TRUE(f.net.send(std::move(m2)).is_ok());
  f.env.run();
  EXPECT_EQ(f.net.bytes_sent(TrafficClass::kCheckpoint), 1000u);
  EXPECT_EQ(f.net.bytes_sent(TrafficClass::kHeartbeat), 500u);
  EXPECT_EQ(f.net.total_bytes_sent(), 1500u);
}

TEST(SimNetworkTest, PeakUtilizationReflectsBurst) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  // 10 Gbps backbone, 60 s buckets -> 75e9 bytes per bucket.  Migration
  // traffic is not paced: it transfers at link speed (1 Gbps access -> 60 s)
  // and lands almost entirely in the first bucket.
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 7500000000ULL;  // 10% of one bucket's capacity
  m.traffic_class = TrafficClass::kMigration;
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  f.env.run();
  const double peak = f.net.peak_backbone_utilization(0, 60);
  EXPECT_NEAR(peak, 0.10, 0.01);
}

TEST(SimNetworkTest, BackupPacingSpreadsCheckpointTraffic) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  // 7.5 GB of checkpoint data paced at 0.5 Gbps takes 120 s: the same
  // bytes spread over two buckets instead of bursting one.
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 7500000000ULL;
  m.traffic_class = TrafficClass::kCheckpoint;
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  f.env.run();
  EXPECT_GT(f.env.now(), 115.0);  // paced delivery
  const double peak =
      f.net.peak_class_utilization({TrafficClass::kCheckpoint}, 0, 180);
  EXPECT_NEAR(peak, 0.05, 0.005);  // half the bytes per bucket
  EXPECT_EQ(f.net.bytes_sent(TrafficClass::kCheckpoint), 7500000000ULL);
}

TEST(SimNetworkTest, PacedBackupDoesNotBlockBulk) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  Message backup;
  backup.from = "a";
  backup.to = "b";
  backup.traffic_class = TrafficClass::kCheckpoint;
  backup.size_bytes = 7500000000ULL;  // 120 s paced
  ASSERT_TRUE(f.net.send(std::move(backup)).is_ok());
  Message urgent;
  urgent.from = "a";
  urgent.to = "b";
  urgent.traffic_class = TrafficClass::kMigration;
  urgent.size_bytes = 125000000ULL;  // 1 s at line rate
  urgent.payload = agent::ReturnNotice{"5"};
  ASSERT_TRUE(f.net.send(std::move(urgent)).is_ok());
  f.env.run(1);
  ASSERT_EQ(f.received.size(), 1u);
  // The migration did not queue behind the backup.
  EXPECT_EQ(std::get<agent::ReturnNotice>(f.received[0].payload).machine_id,
            "5");
  EXPECT_LT(f.env.now(), 2.0);
}

TEST(SimNetworkTest, RandomDropProbability) {
  sim::Environment env(7);
  SimNetworkConfig config;
  config.drop_probability = 1.0;  // always drop
  SimNetwork net(env, config);
  int delivered = 0;
  net.register_endpoint("b", [&](Message&&) { ++delivered; });
  net.register_endpoint("a", [](Message&&) {});
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 10;
  ASSERT_TRUE(net.send(std::move(m)).is_ok());
  env.run();
  EXPECT_EQ(delivered, 0);
}

TEST(SimNetworkTest, PerNodeAccessSpeedOverride) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  f.net.set_access_gbps("a", 10.0);
  f.net.set_access_gbps("b", 10.0);
  Message m;
  m.from = "a";
  m.to = "b";
  m.size_bytes = 1250000000ULL;  // 1 s at 10 Gbps per hop
  ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  f.env.run();
  EXPECT_LT(f.env.now(), 3.5);  // three 10 Gbps hops, not 10+ s
}

TEST(SimNetworkTest, PerPathLatencyOverridesBaseLatency) {
  // Asymmetric WAN distances: a-b stays at the default, a-c is far away.
  Fixture f;
  f.attach("a");
  f.attach("b");
  f.attach("c");
  f.net.set_path_latency("a", "c", 0.050);
  EXPECT_DOUBLE_EQ(f.net.path_latency("a", "b"),
                   f.net.config().base_latency);
  EXPECT_DOUBLE_EQ(f.net.path_latency("a", "c"), 0.050);
  EXPECT_DOUBLE_EQ(f.net.path_latency("c", "a"), 0.050);  // symmetric

  Message near;
  near.from = "a";
  near.to = "b";
  near.size_bytes = 100;
  ASSERT_TRUE(f.net.send(std::move(near)).is_ok());
  f.env.run();
  const util::SimTime near_arrival = f.env.now();
  Message far;
  far.from = "a";
  far.to = "c";
  far.size_bytes = 100;
  ASSERT_TRUE(f.net.send(std::move(far)).is_ok());
  f.env.run();
  const util::SimTime far_elapsed = f.env.now() - near_arrival;
  EXPECT_GE(far_elapsed, 0.050);
  EXPECT_LT(far_elapsed, 0.060);
  EXPECT_LT(near_arrival, 0.010);
}

TEST(SimNetworkTest, PathGbpsReportsBottleneck) {
  Fixture f;
  f.attach("a");
  f.attach("b");
  f.net.set_access_gbps("a", 10.0);
  // b stays on the 1 Gbps default: the pair bottlenecks there.
  EXPECT_DOUBLE_EQ(f.net.path_gbps("a", "b"), 1.0);
  f.net.set_access_gbps("b", 40.0);
  // Now the 10 Gbps backbone-vs-access minimum wins.
  EXPECT_DOUBLE_EQ(f.net.path_gbps("a", "b"),
                   std::min(10.0, f.net.config().backbone_gbps));
  // Unknown endpoints are assumed on default access links.
  EXPECT_DOUBLE_EQ(f.net.path_gbps("ghost", "phantom"), 1.0);
}

TEST(SimNetworkTest, FederationBytesAccountedPerPeer) {
  Fixture f;
  f.attach("gw-a");
  f.attach("gw-b");
  f.attach("gw-c");
  auto send_fed = [&](const NodeId& from, const NodeId& to,
                      std::uint64_t bytes) {
    Message m;
    m.from = from;
    m.to = to;
    m.traffic_class = TrafficClass::kFederation;
    m.size_bytes = bytes;
    ASSERT_TRUE(f.net.send(std::move(m)).is_ok());
  };
  send_fed("gw-a", "gw-b", 1000);
  send_fed("gw-b", "gw-a", 500);  // same pair, reverse direction
  send_fed("gw-a", "gw-c", 70);
  // Non-federation traffic on the same pair stays out of the counters.
  Message bulk;
  bulk.from = "gw-a";
  bulk.to = "gw-b";
  bulk.traffic_class = TrafficClass::kUserData;
  bulk.size_bytes = 9999;
  ASSERT_TRUE(f.net.send(std::move(bulk)).is_ok());
  f.env.run();

  EXPECT_EQ(f.net.federation_bytes_between("gw-a", "gw-b"), 1500u);
  EXPECT_EQ(f.net.federation_bytes_between("gw-b", "gw-a"), 1500u);
  EXPECT_EQ(f.net.federation_bytes_between("gw-a", "gw-c"), 70u);
  EXPECT_EQ(f.net.federation_bytes_between("gw-b", "gw-c"), 0u);
  EXPECT_EQ(f.net.federation_peer_bytes().size(), 2u);
}

}  // namespace
}  // namespace gpunion::net
