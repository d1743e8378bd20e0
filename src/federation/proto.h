// Inter-campus federation protocol.
//
// The federation layer generalizes GPUnion's single-campus model to a set of
// autonomous campuses (SHARY-style).  Each region's gateway replicates the
// federation's capacity directory via peer-to-peer gossip, ranks candidate
// regions locally (WAN-cost-aware: staleness, RTT, checkpoint shipping time
// vs. expected queue wait) and forwards jobs it cannot serve — shipping
// their latest checkpoint across the WAN — to a region that admits them.
// No central party ranks or admits: admission is decided by the *target*
// gateway against its live directory, never by anyone's (possibly stale)
// replica.
//
// Messages are net::Payload alternatives like the agent protocol's, but
// ride the inter-campus WAN network under TrafficClass::kFederation, so the
// capped WAN channel paces them and accounting keeps them separate from
// campus traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "federation/region_directory.h"
#include "obs/trace.h"
#include "workload/job.h"

namespace gpunion::federation {

/// One ranked candidate region (the local WAN-cost ranking's output).
struct RegionScore {
  std::string region;
  std::string gateway_id;
  /// Expected seconds until the job makes progress there: checkpoint
  /// shipping time + RTT + staleness distrust + busy-wait penalty.
  double expected_cost = 0;
};

/// Capacity gossip: one gateway pushing its whole replicated directory (own
/// entry freshly stamped, peers' entries relayed with the ORIGIN's version
/// stamps) to a rotating subset of peers.
struct DirectoryGossip {
  std::string from_region;
  std::string from_gateway;
  std::vector<DirectoryEntry> entries;
};

/// Anti-entropy: a gateway rejoining after a crash starts with an EMPTY
/// replica and would otherwise wait O(peers / fanout) push-gossip rounds to
/// re-learn the federation.  One pull round-trip to a single live peer
/// transfers that peer's whole directory (origin stamps preserved, so merge
/// dominance still holds) and restores full ranking coverage immediately.
struct DirectoryPullRequest {
  std::string from_region;
  std::string reply_to;  // rejoining gateway endpoint id
};

struct DirectoryPullResponse {
  std::string from_region;
  std::string from_gateway;
  std::vector<DirectoryEntry> entries;
};

/// Control-plane probe: "would you take this job?"  Carries the spec so the
/// target can run real admission (policy cap, live capacity); the
/// checkpoint payload and its restore progress ride only the JobTransfer
/// that follows an accept.
struct ForwardRequest {
  std::string origin_region;
  std::string reply_to;  // origin gateway endpoint id
  workload::JobSpec job;
};

/// Target -> origin: admitted, send the job.
struct ForwardAccept {
  std::string region;  // accepting region
  std::string job_id;
};

/// Target -> origin: admission denied.
struct ForwardRefuse {
  std::string region;
  std::string job_id;
  /// "policy" | "admission-cap" | "capacity" | "duplicate-id"
  std::string reason;
};

/// The job itself.  Message::size_bytes = control overhead + the shipped
/// checkpoint payload, so cross-campus migrations pay real WAN time on the
/// capped federation channel.
struct JobTransfer {
  /// First-submission region/gateway (provenance + outcome reporting).  On
  /// a chained forward these keep naming the TRUE origin, not the hop.
  std::string origin_region;
  std::string origin_gateway;
  /// The gateway driving THIS transfer; acks route here (== origin_gateway
  /// except on chained forwards).
  std::string reply_to;
  /// Which (re)send this is; echoed in the ack so the sender can tell a
  /// stale refusal from the verdict on its newest attempt.
  int attempt = 1;
  /// Unique per hand-off at the sending gateway.  The receiver remembers
  /// (reply_to, handoff_id) per admitted job, so a retried duplicate of a
  /// hand-off it already processed is re-acked — never re-admitted — even
  /// after the job has moved on (chained forward), while a genuinely NEW
  /// hand-off of the same job (it came back and left again) is not
  /// mistaken for a duplicate.
  std::uint64_t handoff_id = 0;
  /// Hop provenance: every region that has hosted (or originated) the job,
  /// origin first, ENDING with the sending region.  The receiver appends
  /// itself, so after a chained re-forward A -> B -> C the chain at C reads
  /// [A, B, C].  Senders never offer a job to a region already in its
  /// chain (BGP-style path-vector loop avoidance), keeping chains acyclic.
  std::vector<std::string> chain;
  workload::JobSpec job;
  double start_progress = 0;
  std::uint64_t checkpoint_bytes = 0;
  /// Causal trace crossing the WAN with the job: trace_id identifies the
  /// end-to-end trace, parent_span is the sender's fed_transfer span so the
  /// receiver's admit span parents to it (one trace spans A -> B -> C).
  obs::TraceContext trace;
};

/// Target -> origin: a forwarded job reached a terminal phase.
struct RemoteOutcome {
  std::string region;  // executing region
  std::string job_id;
  bool completed = false;  // false: cancelled/denied/disrupted remotely
};

/// Settles a JobTransfer: the origin keeps the job's spec, checkpoint
/// chain and outbound state until this arrives (retrying the transfer on
/// timeout), so a dropped WAN message can delay a hand-off but never lose
/// the job.  accepted=false (reservation lapsed and live re-admission
/// refused, or the target could not submit) tells the origin to take the
/// job back immediately.
struct JobTransferAck {
  std::string region;  // acking region
  std::string job_id;
  /// Echo of JobTransfer::attempt.  An accept settles the hand-off no
  /// matter which attempt it answers (the receiver is idempotent); a
  /// refusal only counts when it answers the NEWEST attempt — acting on a
  /// stale refusal while a retry is still in flight could run the job in
  /// two regions.
  int attempt = 1;
  bool accepted = true;
};

/// Typical encoded sizes (bytes) for federation control messages.
constexpr std::uint64_t kDigestBytes = 260;
constexpr std::uint64_t kControlBytes = 420;  // carries a JobSpec
/// A DirectoryGossip pays one digest per relayed entry: gossip costs
/// O(regions) bytes per push, independent of node count.
constexpr std::uint64_t kGossipEntryBytes = kDigestBytes;

}  // namespace gpunion::federation
