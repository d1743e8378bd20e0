// Flow-level campus LAN simulator.
//
// Topology: every node hangs off the campus backbone through a dedicated
// access link; the backbone is a single shared segment (typical for a campus
// distribution layer).  Transfers are pipelined (cut-through): a message
// starts when all three links on its path are free, occupies them for its
// serialization time on each, and completes at the bottleneck rate plus
// propagation latency.  Transfers sharing a link queue FIFO — concurrent
// checkpoint backups from one node serialize on its access link exactly like
// a real NIC.  Bytes are accounted per traffic class and per time bucket,
// which bench/network_traffic uses to report peak bandwidth utilization.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "sim/environment.h"
#include "util/rng.h"

namespace gpunion::net {

struct SimNetworkConfig {
  double backbone_gbps = 10.0;          // shared campus backbone
  double default_access_gbps = 1.0;     // per-node access link
  util::Duration base_latency = 0.0002; // 0.2 ms LAN propagation
  double drop_probability = 0.0;        // random loss (fault injection)
  /// Checkpoint backups ride a shared scavenger-class channel capped at
  /// this aggregate rate (per-class QoS, like a campus switch's background
  /// queue): §4's "resilience mechanisms operate transparently without
  /// impacting concurrent network-intensive research activities".  Backup
  /// flows queue FIFO within the channel and never occupy the foreground
  /// links.  0 disables the channel (backups compete as ordinary bulk).
  double backup_pace_gbps = 0.5;
  /// Inter-campus federation traffic (capacity digests, forwarded jobs,
  /// cross-campus checkpoint shipments) rides its own capped WAN link,
  /// mirroring the scavenger backup channel: one shared pipe, FIFO within
  /// the class, accounted separately so a federation deployment can prove
  /// its gossip + migration traffic never crowds campus links.  0 disables
  /// the cap (federation traffic competes as ordinary bulk).
  double federation_wan_gbps = 1.0;
};

class SimNetwork : public Transport {
 public:
  SimNetwork(sim::Environment& env, SimNetworkConfig config = {});

  // Scheduled deliveries hold `this`.
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // --- Transport interface -------------------------------------------------
  void register_endpoint(const NodeId& id, MessageHandler handler) override;
  void unregister_endpoint(const NodeId& id) override;
  util::Status send(Message msg) override;

  // --- Topology control -----------------------------------------------------
  /// Overrides the access-link speed of one node (e.g. the 8x4090 server on
  /// a 10 GbE uplink).
  void set_access_gbps(const NodeId& id, double gbps);

  /// Overrides the one-way propagation latency between two endpoints
  /// (symmetric; WAN instances model asymmetric campus distances with it —
  /// e.g. 4 ms to the nearby campus, 35 ms across the country).  Pairs
  /// without an override keep `config.base_latency`.
  void set_path_latency(const NodeId& a, const NodeId& b,
                        util::Duration latency);
  util::Duration path_latency(const NodeId& a, const NodeId& b) const;

  /// Bottleneck line rate (Gbit/s) between two endpoints: min of both
  /// access links and the backbone.  Class-level caps (the federation WAN
  /// channel) are not included — callers combine them as needed.  Unknown
  /// endpoints are assumed to sit on default access links.
  double path_gbps(const NodeId& a, const NodeId& b) const;

  /// Partitions a node: messages to/from it are silently dropped until
  /// healed.  Models emergency departure (power pull, cable yank).
  void set_partitioned(const NodeId& id, bool partitioned);

  // --- Traffic accounting ---------------------------------------------------
  std::uint64_t bytes_sent(TrafficClass c) const;
  std::uint64_t total_bytes_sent() const;
  /// Current backlog of the backup channel: how far behind real time the
  /// newest enqueued checkpoint upload will complete.  A growing lag means
  /// backup demand exceeds the scavenger budget (the full-snapshot failure
  /// mode the incremental mechanism exists to avoid).
  util::Duration backup_lag(util::SimTime now) const;
  /// Current backlog of the inter-campus WAN channel (federation class):
  /// how far behind real time the newest enqueued cross-campus transfer
  /// will complete.  A growing lag means forwarded checkpoints exceed the
  /// WAN budget — the migration-throughput ceiling of a federation.
  util::Duration federation_lag(util::SimTime now) const;
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t messages_dropped() const { return dropped_; }

  /// Peak backbone utilization (fraction of capacity) over any accounting
  /// bucket within [t0, t1]; the paper's "<2% of campus bandwidth" claim.
  /// Bulk transfers are spread across the buckets their transmission spans.
  double peak_backbone_utilization(util::SimTime t0, util::SimTime t1) const;
  /// Peak utilization counting only the given traffic classes (e.g. the
  /// backup classes for the §4 traffic analysis).
  double peak_class_utilization(std::initializer_list<TrafficClass> classes,
                                util::SimTime t0, util::SimTime t1) const;

  /// Per-peer WAN accounting, federation class only: bytes offered between
  /// the two endpoints (either direction, dropped messages included — the
  /// NIC counter view).  Lets a federation deployment see which region
  /// pair its gossip + checkpoint traffic actually rides.
  std::uint64_t federation_bytes_between(const NodeId& a,
                                         const NodeId& b) const;
  const std::map<std::pair<NodeId, NodeId>, std::uint64_t>&
  federation_peer_bytes() const {
    return federation_peer_bytes_;
  }
  /// Mean backbone utilization over [t0, t1].
  double mean_backbone_utilization(util::SimTime t0, util::SimTime t1) const;
  /// Per-class bytes within [t0, t1] (bucket resolution).
  std::uint64_t bytes_in_window(TrafficClass c, util::SimTime t0,
                                util::SimTime t1) const;

  const SimNetworkConfig& config() const { return config_; }

 private:
  struct Link {
    double bytes_per_sec = 0;
    util::SimTime busy_until = 0;
  };
  struct Endpoint {
    MessageHandler handler;
    Link access;
    bool partitioned = false;
    bool registered = false;
  };

  Endpoint& endpoint_for(const NodeId& id);
  /// Books `msg`'s bytes into accounting buckets, spread uniformly over the
  /// transmission interval [start, end] (a point in time for control).
  void account(const Message& msg, util::SimTime start, util::SimTime end);
  /// Direction-agnostic key for per-pair state (latency overrides,
  /// per-peer accounting).
  static std::pair<NodeId, NodeId> pair_key(const NodeId& a, const NodeId& b) {
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  sim::Environment& env_;
  SimNetworkConfig config_;
  util::Rng drop_rng_;
  std::unordered_map<NodeId, Endpoint> endpoints_;
  Link backbone_;
  Link backup_channel_;  // shared scavenger-class pipe for checkpoints
  Link wan_channel_;     // shared capped pipe for inter-campus federation
  std::array<std::uint64_t, static_cast<std::size_t>(TrafficClass::kClassCount)>
      class_bytes_{};
  // bucket index -> per-class bytes
  std::unordered_map<std::uint64_t,
                     std::array<std::uint64_t, static_cast<std::size_t>(
                                                   TrafficClass::kClassCount)>>
      buckets_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  // Sparse: only endpoint pairs with an explicit override.
  std::map<std::pair<NodeId, NodeId>, util::Duration> path_latency_;
  // Federation-class bytes per endpoint pair (WAN instances only in
  // practice: the class never rides campus LANs).
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> federation_peer_bytes_;
};

}  // namespace gpunion::net
