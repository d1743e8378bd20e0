#include "net/sim_network.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace gpunion::net {
namespace {

constexpr double kBytesPerGbit = 1e9 / 8.0;

/// Control-plane classes are prioritized (QoS) and bypass bulk queueing.
bool is_control_plane(TrafficClass c) {
  return c == TrafficClass::kControl || c == TrafficClass::kHeartbeat ||
         c == TrafficClass::kTelemetry;
}

}  // namespace

SimNetwork::SimNetwork(sim::Environment& env, SimNetworkConfig config)
    : env_(env), config_(config), drop_rng_(env.fork_rng("net.drop")) {
  assert(config_.backbone_gbps > 0 && config_.default_access_gbps > 0);
  backbone_.bytes_per_sec = config_.backbone_gbps * kBytesPerGbit;
}

SimNetwork::Endpoint& SimNetwork::endpoint_for(const NodeId& id) {
  auto [it, inserted] = endpoints_.try_emplace(id);
  if (inserted) {
    it->second.access.bytes_per_sec =
        config_.default_access_gbps * kBytesPerGbit;
  }
  return it->second;
}

void SimNetwork::register_endpoint(const NodeId& id, MessageHandler handler) {
  assert(handler && "endpoint requires a handler");
  Endpoint& ep = endpoint_for(id);
  ep.handler = std::move(handler);
  ep.registered = true;
}

void SimNetwork::unregister_endpoint(const NodeId& id) {
  auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  it->second.registered = false;
  it->second.handler = nullptr;
}

void SimNetwork::set_access_gbps(const NodeId& id, double gbps) {
  assert(gbps > 0);
  endpoint_for(id).access.bytes_per_sec = gbps * kBytesPerGbit;
}

void SimNetwork::set_path_latency(const NodeId& a, const NodeId& b,
                                  util::Duration latency) {
  assert(latency >= 0);
  path_latency_[pair_key(a, b)] = latency;
}

util::Duration SimNetwork::path_latency(const NodeId& a,
                                        const NodeId& b) const {
  // Campus LANs never set overrides; keep their per-message send cost free
  // of the pair-key construction and map probe.
  if (path_latency_.empty()) return config_.base_latency;
  auto it = path_latency_.find(pair_key(a, b));
  return it == path_latency_.end() ? config_.base_latency : it->second;
}

double SimNetwork::path_gbps(const NodeId& a, const NodeId& b) const {
  auto rate_of = [this](const NodeId& id) {
    auto it = endpoints_.find(id);
    return it == endpoints_.end()
               ? config_.default_access_gbps * kBytesPerGbit
               : it->second.access.bytes_per_sec;
  };
  return std::min({rate_of(a), backbone_.bytes_per_sec, rate_of(b)}) /
         kBytesPerGbit;
}

void SimNetwork::set_partitioned(const NodeId& id, bool partitioned) {
  endpoint_for(id).partitioned = partitioned;
}

bool SimNetwork::is_partitioned(const NodeId& id) const {
  auto it = endpoints_.find(id);
  return it != endpoints_.end() && it->second.partitioned;
}

void SimNetwork::set_drop_probability(double p) {
  assert(p >= 0.0 && p <= 1.0);
  config_.drop_probability = p;
}

void SimNetwork::account(const Message& msg, util::SimTime start,
                         util::SimTime end) {
  const auto cls = static_cast<std::size_t>(msg.traffic_class);
  class_bytes_[cls] += msg.size_bytes;
  if (msg.traffic_class == TrafficClass::kFederation) {
    federation_peer_bytes_[pair_key(msg.from, msg.to)] += msg.size_bytes;
  }
  const auto first =
      static_cast<std::uint64_t>(start / config_.accounting_bucket);
  const auto last =
      static_cast<std::uint64_t>(end / config_.accounting_bucket);
  if (last <= first) {
    buckets_[first][cls] += msg.size_bytes;
    return;
  }
  // Spread proportionally over the buckets the transmission spans, so a
  // long transfer does not spike a single bucket.
  const double duration = end - start;
  std::uint64_t booked = 0;
  for (std::uint64_t bucket = first; bucket <= last; ++bucket) {
    const double bucket_start =
        static_cast<double>(bucket) * config_.accounting_bucket;
    const double overlap =
        std::min(end, bucket_start + config_.accounting_bucket) -
        std::max(start, bucket_start);
    const auto share = static_cast<std::uint64_t>(
        static_cast<double>(msg.size_bytes) * overlap / duration);
    buckets_[bucket][cls] += share;
    booked += share;
  }
  // Rounding remainder lands in the final bucket.
  buckets_[last][cls] += msg.size_bytes - booked;
}

util::Status SimNetwork::send(Message msg) {
  auto dst_it = endpoints_.find(msg.to);
  if (dst_it == endpoints_.end()) {
    ++dropped_;
    return util::not_found_error("unknown destination " + msg.to);
  }

  Endpoint& dst = dst_it->second;
  Endpoint& src = endpoint_for(msg.from);

  const util::SimTime now = env_.now();

  if (src.partitioned || dst.partitioned) {
    account(msg, now, now);  // the NIC counter still ticks
    ++dropped_;
    return util::Status();  // silently lost, like a yanked cable
  }
  if (config_.drop_probability > 0 &&
      drop_rng_.bernoulli(config_.drop_probability)) {
    account(msg, now, now);
    ++dropped_;
    return util::Status();
  }

  const auto size = static_cast<double>(msg.size_bytes);
  // Propagation: per-path override (WAN distances) or the network default.
  const util::Duration latency = path_latency(msg.from, msg.to);
  const double bottleneck_rate =
      std::min({src.access.bytes_per_sec, backbone_.bytes_per_sec,
                dst.access.bytes_per_sec});
  // Shared capped-pipe model used by both scavenger-class channels: flows
  // queue FIFO inside the channel and the class never exceeds its budget
  // no matter how many flows are in flight at once.
  auto via_paced_channel = [&](Link& channel, double gbps) {
    const double pace = std::min(gbps * kBytesPerGbit, bottleneck_rate);
    const util::SimTime start = std::max(now, channel.busy_until);
    const util::SimTime end = start + size / pace;
    channel.busy_until = end;
    account(msg, start, end);
    return end + latency;
  };
  util::SimTime t;
  if (is_control_plane(msg.traffic_class)) {
    // Control-plane messages are tiny and DSCP-prioritized on campus
    // switches: they never queue behind bulk transfers.
    t = now + size / bottleneck_rate + latency;
    account(msg, now, now);
  } else if (msg.traffic_class == TrafficClass::kFederation &&
             config_.federation_wan_gbps > 0) {
    // Inter-campus WAN channel: federation traffic (digests, forwards,
    // shipped checkpoints) shares one capped pipe.  FIFO within the class
    // — a large cross-campus checkpoint shipment delays the digests
    // queued behind it, which is the staleness every gateway's replica
    // has to live with.
    t = via_paced_channel(wan_channel_, config_.federation_wan_gbps);
  } else if (msg.traffic_class == TrafficClass::kCheckpoint &&
             config_.backup_pace_gbps > 0) {
    // Backup channel: checkpoint uploads share one scavenger-class pipe
    // capped at the configured aggregate rate, leaving foreground links
    // free.
    t = via_paced_channel(backup_channel_, config_.backup_pace_gbps);
  } else {
    // Bulk data uses a pipelined (cut-through) flow model: the transfer
    // occupies the source access link, the backbone and the destination
    // access link concurrently from `start`, finishing at the bottleneck
    // rate.  Bulk transfers sharing a link queue behind each other FIFO.
    const util::SimTime start =
        std::max({now, src.access.busy_until, backbone_.busy_until,
                  dst.access.busy_until});
    src.access.busy_until = start + size / src.access.bytes_per_sec;
    backbone_.busy_until = start + size / backbone_.bytes_per_sec;
    dst.access.busy_until = start + size / dst.access.bytes_per_sec;
    t = start + size / bottleneck_rate + latency;
    account(msg, start, t - latency);
  }

  env_.schedule_at(t, [this, m = std::move(msg)]() mutable {
    auto it = endpoints_.find(m.to);
    // Re-check on delivery: the endpoint may have departed or partitioned
    // while the message was in flight.
    if (it == endpoints_.end() || !it->second.registered ||
        it->second.partitioned || !it->second.handler) {
      ++dropped_;
      GPUNION_DLOG("net") << "dropped in-flight message to " << m.to;
      return;
    }
    ++delivered_;
    // Invoke a copy: the handler may unregister its own endpoint.
    const MessageHandler handler = it->second.handler;
    handler(std::move(m));
  });
  return util::Status();
}

std::uint64_t SimNetwork::bytes_sent(TrafficClass c) const {
  return class_bytes_[static_cast<std::size_t>(c)];
}

std::uint64_t SimNetwork::federation_bytes_between(const NodeId& a,
                                                   const NodeId& b) const {
  auto it = federation_peer_bytes_.find(pair_key(a, b));
  return it == federation_peer_bytes_.end() ? 0 : it->second;
}

std::uint64_t SimNetwork::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (auto b : class_bytes_) total += b;
  return total;
}

util::Duration SimNetwork::backup_lag(util::SimTime now) const {
  return std::max(0.0, backup_channel_.busy_until - now);
}

util::Duration SimNetwork::federation_lag(util::SimTime now) const {
  return std::max(0.0, wan_channel_.busy_until - now);
}

std::uint64_t SimNetwork::bytes_in_window(TrafficClass c, util::SimTime t0,
                                          util::SimTime t1) const {
  const auto cls = static_cast<std::size_t>(c);
  const auto b0 = static_cast<std::uint64_t>(t0 / config_.accounting_bucket);
  const auto b1 = static_cast<std::uint64_t>(t1 / config_.accounting_bucket);
  std::uint64_t total = 0;
  for (const auto& [bucket, bytes] : buckets_) {
    if (bucket >= b0 && bucket <= b1) total += bytes[cls];
  }
  return total;
}

double SimNetwork::peak_backbone_utilization(util::SimTime t0,
                                             util::SimTime t1) const {
  return peak_class_utilization(
      {TrafficClass::kControl, TrafficClass::kHeartbeat,
       TrafficClass::kTelemetry, TrafficClass::kCheckpoint,
       TrafficClass::kMigration, TrafficClass::kImage,
       TrafficClass::kUserData, TrafficClass::kFederation},
      t0, t1);
}

double SimNetwork::peak_class_utilization(
    std::initializer_list<TrafficClass> classes, util::SimTime t0,
    util::SimTime t1) const {
  const auto b0 = static_cast<std::uint64_t>(t0 / config_.accounting_bucket);
  const auto b1 = static_cast<std::uint64_t>(t1 / config_.accounting_bucket);
  const double capacity_per_bucket =
      backbone_.bytes_per_sec * config_.accounting_bucket;
  double peak = 0;
  for (const auto& [bucket, bytes] : buckets_) {
    if (bucket < b0 || bucket > b1) continue;
    std::uint64_t total = 0;
    for (TrafficClass c : classes) {
      total += bytes[static_cast<std::size_t>(c)];
    }
    peak = std::max(peak, static_cast<double>(total) / capacity_per_bucket);
  }
  return peak;
}

double SimNetwork::mean_backbone_utilization(util::SimTime t0,
                                             util::SimTime t1) const {
  assert(t1 > t0);
  const auto b0 = static_cast<std::uint64_t>(t0 / config_.accounting_bucket);
  const auto b1 = static_cast<std::uint64_t>(t1 / config_.accounting_bucket);
  std::uint64_t total = 0;
  for (const auto& [bucket, bytes] : buckets_) {
    if (bucket < b0 || bucket > b1) continue;
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(TrafficClass::kClassCount); ++c) {
      total += bytes[c];
    }
  }
  return static_cast<double>(total) / (backbone_.bytes_per_sec * (t1 - t0));
}

}  // namespace gpunion::net
