#include "federation/broker.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace gpunion::federation {

FederationBroker::FederationBroker(sim::Environment& env, net::Transport& wan,
                                   BrokerConfig config)
    : env_(env),
      lane_(env.register_lane("broker")),
      wan_(wan),
      config_(std::move(config)) {}

void FederationBroker::start() {
  assert(!started_ && "FederationBroker::start called twice");
  started_ = true;
  wan_.register_endpoint(
      config_.id,
      [this](net::Message&& msg) { handle_message(std::move(msg)); }, lane_);
}

void FederationBroker::handle_message(net::Message&& msg) {
  switch (msg.kind) {
    case kCapacityDigest:
      handle_digest(std::any_cast<const DigestMessage&>(msg.payload));
      break;
    case kRankingRequest:
      handle_ranking_request(
          std::any_cast<const RankingRequest&>(msg.payload));
      break;
    default:
      GPUNION_WLOG("broker") << "unexpected message kind " << msg.kind;
  }
}

void FederationBroker::handle_digest(const DigestMessage& digest) {
  RegionEntry& entry = regions_[digest.region];
  if (entry.region.empty()) {
    entry.region = digest.region;
    GPUNION_ILOG("broker") << "region " << digest.region << " joined via "
                           << digest.gateway_id;
  } else if (digest.generated_at <= entry.digest_generated_at) {
    // Drop only digests GENERATED no later than the one on file (replays
    // and reordering).  A restarted gateway resets its sequence counter
    // but stamps fresh times, so it re-enters rankings immediately — a
    // seq-based guard would lock it out forever.
    ++stats_.stale_digests_dropped;
    return;
  }
  entry.gateway_id = digest.gateway_id;
  entry.capacity = digest.capacity;
  entry.digest_seq = digest.seq;
  entry.digest_generated_at = digest.generated_at;
  entry.received_at = env_.now();
  ++entry.digests_received;
  ++stats_.digests_received;
}

void FederationBroker::handle_ranking_request(const RankingRequest& request) {
  ++stats_.ranking_requests;
  RankingResponse response;
  response.request_id = request.request_id;
  for (const auto& [region, entry] : regions_) {
    if (region == request.origin_region) continue;
    const util::Duration age = env_.now() - entry.received_at;
    if (age > config_.digest_hard_ttl) continue;  // presumed unreachable
    // Basic fit from the digest's hardware envelope: could this region
    // *ever* host the shape (enough GPUs on one node, VRAM, compute
    // capability)?  Free-capacity staleness is deliberately tolerated — a
    // region digested as busy may have drained, and one digested as free
    // may have filled; target-side admission settles it either way.  The
    // envelope, by contrast, only changes on (re)registration, so this
    // filter essentially never drops a feasible region.
    if (entry.capacity.max_node_gpus < request.gpu_count) continue;
    if (entry.capacity.max_gpu_memory_gb < request.gpu_memory_gb) continue;
    if (entry.capacity.max_compute_capability <
        request.min_compute_capability) {
      continue;
    }
    stats_.digest_age_at_query.add(age);
    RegionScore score;
    score.region = region;
    score.gateway_id = entry.gateway_id;
    score.free_gpus = entry.capacity.free_gpus;
    score.free_fractional_seats =
        entry.capacity.free_seats[hw::Tenancy::kFractional];
    score.digest_age = age;
    response.ranking.push_back(std::move(score));
  }
  // Most digest-free capacity first; region name breaks ties so identical
  // digests rank deterministically.
  std::stable_sort(response.ranking.begin(), response.ranking.end(),
                   [](const RegionScore& a, const RegionScore& b) {
                     if (a.free_gpus != b.free_gpus) {
                       return a.free_gpus > b.free_gpus;
                     }
                     if (a.free_fractional_seats != b.free_fractional_seats) {
                       return a.free_fractional_seats > b.free_fractional_seats;
                     }
                     return a.region < b.region;
                   });

  net::Message reply;
  reply.from = config_.id;
  reply.to = request.reply_to;
  reply.kind = kRankingResponse;
  reply.traffic_class = net::TrafficClass::kFederation;
  reply.size_bytes =
      kDigestBytes + 60 * static_cast<std::uint64_t>(response.ranking.size());
  reply.payload = std::move(response);
  (void)wan_.send(std::move(reply));
}

}  // namespace gpunion::federation
