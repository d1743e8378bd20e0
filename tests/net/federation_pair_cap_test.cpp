// Federation traffic has no per-region-pair WAN cap: every endpoint pair
// shares the one paced federation channel, FIFO within the class, so a
// saturated A<->B checkpoint shipment queues a C<->D digest behind it.
#include "net/sim_network.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace gpunion::net {
namespace {

struct Fixture {
  explicit Fixture(SimNetworkConfig config) : net(env, config) {}

  void attach(const NodeId& id) {
    net.register_endpoint(id, [this, id](Message&& m) {
      delivered_at[id] = env.now();
      (void)m;
    });
  }

  void send(const NodeId& from, const NodeId& to, std::uint64_t bytes) {
    Message m;
    m.from = from;
    m.to = to;
    m.traffic_class = TrafficClass::kFederation;
    m.size_bytes = bytes;
    ASSERT_TRUE(net.send(std::move(m)).is_ok());
  }

  sim::Environment env{1};
  SimNetwork net;
  std::map<NodeId, double> delivered_at;  // keyed by RECEIVER
};

constexpr std::uint64_t kBigShipment = 1250000000ULL;  // 10 s at 1 Gbps
constexpr std::uint64_t kDigest = 260;

TEST(FederationPairCapTest, SharedChannelQueuesAcrossPairs) {
  SimNetworkConfig config;
  config.federation_wan_gbps = 1.0;
  Fixture f(config);
  for (const char* id : {"gw-a", "gw-b", "gw-c", "gw-d"}) f.attach(id);

  // A->B ships a checkpoint that holds the channel for ~10 s; C->D sends a
  // digest immediately after, on a different region pair.
  f.send("gw-a", "gw-b", kBigShipment);
  f.send("gw-c", "gw-d", kDigest);
  f.env.run();

  // FIFO within the shared class: the digest waits out the shipment.
  ASSERT_TRUE(f.delivered_at.count("gw-d"));
  EXPECT_GT(f.delivered_at["gw-d"], 9.0)
      << "C->D digest crossed the WAN without queueing behind the A->B "
         "shipment on the shared federation channel";
}

}  // namespace
}  // namespace gpunion::net
