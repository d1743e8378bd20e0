// Region gateway: one campus's membership in the federation.
//
// Wraps the local Coordinator without touching its internals:
//  - maintains a replicated RegionDirectory and pushes it peer-to-peer
//    every digest interval (rotating fanout); ranks candidate regions
//    LOCALLY from the replica with a WAN-cost-aware score (digest
//    staleness, modeled inter-region RTT and bandwidth, checkpoint
//    shipping time vs. expected queue wait) — no round-trip per placement
//    query, and no single component whose death blinds the federation;
//  - watches the local pending queue and, when a job has waited past the
//    forwarding threshold with no local capacity in sight, withdraws the
//    job and offers it to candidate regions in rank order;
//  - admits (or refuses) jobs forwarded *to* this region under a local
//    admission policy — autonomy is preserved: a region can cap or refuse
//    remote work outright, and admission is always checked against the
//    live directory, never anyone's digest;
//  - ships the latest checkpoint of a forwarded job over the capped
//    inter-campus WAN channel (TrafficClass::kFederation) and seeds the
//    destination's checkpoint store, so a cross-campus migration resumes
//    from durable progress instead of restarting;
//  - preserves hop provenance across CHAINED re-forwards: a region hosting
//    displaced jobs for someone else can re-forward them when it degrades
//    in turn, with the A -> B -> C chain carried on the wire, recorded in
//    both databases, and kept acyclic by path-vector loop avoidance (a job
//    is never offered to a region already in its chain).
//
// Rankings may be computed on stale replicas; the refusal/re-route
// loop here is what makes that safe (forward refused at the target -> next
// region in the ranking -> local requeue with backoff when everyone says
// no).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "federation/proto.h"
#include "federation/region_directory.h"
#include "net/transport.h"
#include "sched/coordinator.h"
#include "sim/environment.h"
#include "storage/checkpoint_store.h"
#include "util/rng.h"
#include "util/stats.h"

namespace gpunion::federation {

/// Modeled WAN path between two gateways, supplied by the platform (the
/// gateway itself only sees the abstract Transport): control round-trip
/// and the effective shipping rate for bulk checkpoint payloads.  Feeds
/// the ranking's cost terms and the interactive latency budget.
struct WanPathModel {
  util::Duration rtt = 0;
  double gbps = 1.0;
};
using WanPathFn = std::function<WanPathModel(const std::string& from_gateway,
                                             const std::string& to_gateway)>;

/// Multiplicative jitter (+/- this fraction, uniform) applied to every
/// retry/backoff delay (forward retry backoff, transfer resend backoff).
/// Without it, every gateway that backed off a crashed region retries at
/// the exact same instant it comes back — a synchronized thundering herd
/// into the recovering coordinator.  Protocol *timeouts* (forward_timeout,
/// the base transfer ack deadline) stay exact.
inline constexpr double kRetryJitter = 0.15;
/// Base ack deadline per transfer attempt (doubles per retry, capped at
/// 8x).  Much larger than forward_timeout: a shipment carries gigabytes
/// through the capped WAN channel and queues FIFO behind its peers (an
/// outage burst backs the channel up for tens of seconds), and a premature
/// retry re-ships the whole payload.  Transfers retry until acked —
/// at-least-once with an idempotent receiver — because giving up after an
/// accepted hand-off could run the job twice.
inline constexpr util::Duration kTransferAckTimeout = 120.0;
/// Replica entries whose origin stamp is older than this are dropped from
/// rankings entirely (region presumed unreachable).  Staleness below the
/// cutoff is not filtered: the ranking discounts it and the target's live
/// admission catches the drift.
inline constexpr util::Duration kDirectoryHardTtl = 120.0;

/// Per-region federation policy: what this campus forwards out, and what it
/// is willing to take in.  Regional autonomy lives here.
struct RegionPolicy {
  /// Inbound admission.
  bool accept_remote = true;
  /// Max forwarded jobs hosted concurrently (reservations + running).
  int max_remote_jobs = 64;
  /// Free whole GPUs kept back for local submitters when admitting.
  int min_free_gpus_reserve = 0;

  /// Outbound forwarding.  Training and batch jobs always may leave.
  bool forward_interactive = false;  // cross-campus Jupyter: off by default
  /// Pending age before a job becomes a forward candidate.
  util::Duration forward_after = 60.0;
  /// Give up on an unanswered forward offer after this long.
  util::Duration forward_timeout = 30.0;
  /// After every candidate region refused, wait this long before trying to
  /// forward the same job again.
  util::Duration forward_retry_backoff = 120.0;
  /// Gossip cadence (also drives the remote-job outcome sweep).
  util::Duration digest_interval = 10.0;
  /// An accepted forward whose transfer never arrives frees its admission
  /// slot after this long.
  util::Duration reservation_ttl = 60.0;

  /// Interactive sessions are forwarded only to regions whose modeled WAN
  /// RTT fits this budget (a cross-country Jupyter kernel is useless);
  /// with no region inside the budget the session stays pending locally.
  util::Duration max_interactive_rtt = 0.1;
};

struct GatewayStats {
  // Outbound (jobs this region pushed elsewhere).
  std::uint64_t local_rankings = 0;      // answered from the replica
  std::uint64_t forwards_attempted = 0;  // ForwardRequests sent
  std::uint64_t forwards_admitted = 0;   // accepted by a remote region
  std::uint64_t forwards_refused = 0;    // refusals received
  std::uint64_t forward_timeouts = 0;    // unanswered requests
  std::uint64_t reroutes = 0;            // retries at the 2nd..Nth region
  std::uint64_t forwards_returned = 0;   // every candidate refused
  std::uint64_t forwards_aborted = 0;    // withdraw raced / empty ranking
  std::uint64_t transfers_delivered = 0;  // transfer acks received (hand-off)
  std::uint64_t transfer_retries = 0;     // unacked transfers re-sent
  std::uint64_t transfers_bounced = 0;    // ack said refused; job came home
  std::uint64_t checkpoints_shipped = 0;
  std::uint64_t checkpoint_bytes_shipped = 0;
  std::uint64_t remote_completions = 0;  // forwarded job completed remotely
  std::uint64_t remote_failures = 0;     // forwarded job died remotely
  // Ranking filters.
  std::uint64_t chain_loops_avoided = 0;      // candidate already in chain
  std::uint64_t interactive_rtt_filtered = 0;  // RTT budget exceeded
  /// Replica staleness actually ranked on.
  util::SampleSet directory_age_at_rank;
  // Inbound (jobs other regions pushed here).
  std::uint64_t remote_admitted = 0;     // accepts issued (reservations)
  std::uint64_t remote_jobs_taken = 0;   // transfers actually hosted
  std::uint64_t remote_refused_policy = 0;
  std::uint64_t remote_refused_cap = 0;
  std::uint64_t remote_refused_capacity = 0;
  std::uint64_t remote_refused_duplicate = 0;
  std::uint64_t transfers_received = 0;
  std::uint64_t transfers_unreserved = 0;  // landed after their TTL lapsed
  std::uint64_t cross_campus_migrations_in = 0;  // admitted with progress > 0
  std::uint64_t reservations_expired = 0;
  // Gossip.
  std::uint64_t digests_published = 0;  // own digest (re)stamped
  std::uint64_t gossips_sent = 0;       // directory pushes sent
  std::uint64_t gossips_received = 0;   // directory pushes received
  // Anti-entropy (region rejoin).
  std::uint64_t anti_entropy_pulls = 0;    // pull requests sent
  std::uint64_t anti_entropy_served = 0;   // pull requests answered
  std::uint64_t anti_entropy_entries = 0;  // entries merged from pulls
};

/// The GatewayStats counters the stats journal persists, in journal order.
/// persist_stats() and the recovery rebuild both walk this one table, so
/// the durable layout cannot drift between writer and reader.
/// directory_age_at_rank is a SampleSet and deliberately non-durable.
inline constexpr std::uint64_t GatewayStats::*kJournaledStats[] = {
    &GatewayStats::local_rankings,
    &GatewayStats::forwards_attempted,
    &GatewayStats::forwards_admitted,
    &GatewayStats::forwards_refused,
    &GatewayStats::forward_timeouts,
    &GatewayStats::reroutes,
    &GatewayStats::forwards_returned,
    &GatewayStats::forwards_aborted,
    &GatewayStats::transfers_delivered,
    &GatewayStats::transfer_retries,
    &GatewayStats::transfers_bounced,
    &GatewayStats::checkpoints_shipped,
    &GatewayStats::checkpoint_bytes_shipped,
    &GatewayStats::remote_completions,
    &GatewayStats::remote_failures,
    &GatewayStats::chain_loops_avoided,
    &GatewayStats::interactive_rtt_filtered,
    &GatewayStats::remote_admitted,
    &GatewayStats::remote_jobs_taken,
    &GatewayStats::remote_refused_policy,
    &GatewayStats::remote_refused_cap,
    &GatewayStats::remote_refused_capacity,
    &GatewayStats::remote_refused_duplicate,
    &GatewayStats::transfers_received,
    &GatewayStats::transfers_unreserved,
    &GatewayStats::cross_campus_migrations_in,
    &GatewayStats::reservations_expired,
    &GatewayStats::digests_published,
    &GatewayStats::gossips_sent,
    &GatewayStats::gossips_received,
    &GatewayStats::anti_entropy_pulls,
    &GatewayStats::anti_entropy_served,
    &GatewayStats::anti_entropy_entries,
};

/// What a gateway recover() rebuilt / settled, for tests and benches.
struct GatewayRecoveryStats {
  std::uint64_t recoveries = 0;
  /// Forward rows in kAwaitingTransferAck whose transfer was re-sent (the
  /// hand-off continues where the crash interrupted it).
  std::uint64_t forwards_resumed = 0;
  /// Forward rows still awaiting an offer reply: the job was resubmitted to
  /// the local queue (the target only held a TTL reservation, which lapses
  /// on its own, so repatriating cannot run the job twice).
  std::uint64_t forwards_repatriated = 0;
  std::uint64_t remote_jobs_rebuilt = 0;  // hosted guests re-learned
  std::uint64_t handoffs_rebuilt = 0;     // dedup rows re-learned
};

class RegionGateway {
 public:
  RegionGateway(sim::Environment& env, sched::Coordinator& coordinator,
                storage::CheckpointStore& store, db::Database& database,
                net::Transport& wan, std::string region_name,
                RegionPolicy policy = {}, WanPathFn wan_path = {});
  ~RegionGateway();

  RegionGateway(const RegionGateway&) = delete;
  RegionGateway& operator=(const RegionGateway&) = delete;

  /// Registers the WAN endpoint, publishes the first digest immediately and
  /// starts the gossip/sweep timer.
  void start();

  /// Seeds a gossip peer (the platform introduces the initial membership;
  /// gossip discovers regions that join later).
  void add_peer(const std::string& region, const std::string& gateway_id);

  const std::string& region() const { return region_; }
  /// WAN endpoint id ("gw-<region>").
  const std::string& gateway_id() const { return gateway_id_; }
  const GatewayStats& stats() const { return stats_; }
  const RegionPolicy& policy() const { return policy_; }
  /// This gateway's replica of the federation directory.
  const RegionDirectory& directory() const { return directory_; }
  /// Forwarded jobs currently reserved or running here.
  int remote_jobs_active() const {
    return static_cast<int>(remote_jobs_.size() + pending_inbound_.size());
  }
  /// True while `job_id` has an outbound forward in flight (the job may be
  /// absent from the coordinator without having landed anywhere yet).
  bool forwarding(const std::string& job_id) const {
    return outbound_.contains(job_id);
  }
  /// Outbound forwards in flight (offer or transfer outstanding); each
  /// one's job is already withdrawn from the local coordinator.  Closes
  /// the accounting identity: jobs_withdrawn == transfers_delivered +
  /// forwards_returned + withdrawn_in_flight.
  int withdrawn_in_flight() const {
    return static_cast<int>(outbound_.size());
  }
  /// Hop chain of a job admitted here via a federation transfer (origin
  /// first, this region last), or nullptr for jobs never hosted here.
  /// Retained for the run, like the hand-off dedup table.
  const std::vector<std::string>* provenance_chain(
      const std::string& job_id) const {
    auto it = chains_.find(job_id);
    return it == chains_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, std::vector<std::string>>& hosted_chains()
      const {
    return chains_;
  }

  /// One gossip/sweep/forward-scan tick (timer-driven; public for tests).
  void tick();

  // --- Crash / restart -------------------------------------------------------
  // Crash-in-place, like the coordinator: the object cannot be destroyed
  // (scheduled events capture `this`), so crash() marks the gateway down —
  // inbound WAN messages are dropped, the tick timer stops, and every
  // in-memory table is wiped.  recover() rebuilds from the durable tables
  // the gateway wrote as it worked: forward-state rows (the ONLY copy of a
  // withdrawn job in flight), hand-off dedup rows, hosted-job provenance
  // and the stats journal, then anti-entropy-pulls the directory from one
  // live peer.  epoch_ invalidates one-shot timeouts armed before the
  // crash.
  void crash();
  void recover();
  bool crashed() const { return crashed_; }
  const GatewayRecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  /// `base` +/- kRetryJitter fraction, drawn from this gateway's private
  /// stream.  Every retry/backoff delay goes through this; public so tests
  /// can assert the de-correlation.
  util::Duration jittered(util::Duration base);

 private:
  /// Outbound forward state machine, one entry per job in flight: its
  /// durable row (persist_forward() writes it, recovery reads it back) plus
  /// the transient fields a restart resets.  The entry (and with it the
  /// job's spec and checkpoint chain) survives until the target
  /// acknowledges the transfer, so no single lost WAN message can lose the
  /// job.
  struct OutboundForward : db::ForwardStateRecord {
    std::uint64_t generation = 0;  // guards stale timeout events
    std::vector<RegionScore> ranking;
    std::size_t next_region = 0;
    /// Pre-allocated fed_transfer span id (open at send, closed at ack) so
    /// the receiver's admit span can parent to it mid-flight.
    std::uint64_t transfer_span = 0;
    /// When the current offer left this gateway (start of the fed_offer
    /// span; -1 while no offer is outstanding).
    util::SimTime offer_sent_at = -1;
    /// When the first transfer attempt left (start of the fed_transfer
    /// span; retries keep the original start).
    util::SimTime transfer_sent_at = -1;
  };
  /// A forwarded job running here for another region.
  struct RemoteJob {
    std::string origin_gateway;
    std::string origin_region;
    util::SimTime admitted_at = 0;
  };

  void handle_message(net::Message&& msg);
  void handle_forward_request(const ForwardRequest& request);
  void handle_forward_accept(const ForwardAccept& accept);
  void handle_forward_refuse(const ForwardRefuse& refuse);
  void handle_job_transfer(const JobTransfer& transfer);
  void handle_transfer_ack(const JobTransferAck& ack);
  void handle_remote_outcome(const RemoteOutcome& outcome);
  void handle_directory_gossip(const DirectoryGossip& gossip);
  void handle_directory_pull(const DirectoryPullRequest& request);
  void handle_directory_pull_response(const DirectoryPullResponse& response);
  /// (Re)sends the JobTransfer for an accepted forward and re-arms its
  /// ack timeout.
  void send_transfer(const std::string& job_id);

  void publish_digest();
  void sweep_remote_jobs();
  void scan_for_forwards();
  void initiate_forward(const std::string& job_id);
  /// WAN-cost-aware candidate ranking from the local replica:
  /// loop-avoided, RTT-budgeted, staleness-filtered, envelope-filtered,
  /// ordered by expected cost.  `checkpoint_bytes` sizes the shipping term.
  std::vector<RegionScore> rank_locally(const workload::JobSpec& job,
                                        std::uint64_t checkpoint_bytes,
                                        const std::vector<std::string>& chain);
  /// Resolves the true origin + hop chain for forwarding `job_id` out of
  /// here (a chained forward keeps the original submitter's identity).
  void resolve_origin(const std::string& job_id, OutboundForward& forward);
  /// Offers the withdrawn job to the next region in the ranking, or hands
  /// it back to the local queue when the ranking is exhausted.
  void try_next_region(const std::string& job_id);
  void return_job_home(const std::string& job_id);
  void arm_timeout(const std::string& job_id, std::uint64_t generation,
                   util::Duration delay);
  /// True when some local node could host the job's shape right now: a
  /// per-node check against the live indexed view (GPU count on one node,
  /// memory, compute capability), not the fleet-wide aggregate — four free
  /// GPUs on four different nodes cannot place a 4-GPU job.
  bool locally_placeable(const workload::JobSpec& job);
  /// "" = admit; otherwise the refusal reason.
  std::string admission_verdict(const workload::JobSpec& job);
  /// Submits an arrived transfer locally; false when the coordinator
  /// refused the submission (the ack tells the origin to take it back).
  bool admit_transfer(const JobTransfer& transfer);
  void send(const std::string& to, net::Payload payload,
            std::uint64_t bytes);
  /// Mirrors an in-flight forward to its durable row (the withdrawn job's
  /// only home) and journals the stats counters in the same breath, so the
  /// accounting identity (withdrawn == delivered + returned + in flight)
  /// survives a crash at any event boundary.
  void persist_forward(const OutboundForward& forward);
  void erase_forward(const std::string& job_id);
  void persist_stats();
  /// Reloads stats, dedup table, hosted guests and in-flight forwards from
  /// the durable tables; resumes or repatriates each recovered forward.
  void rebuild_from_db();
  /// Pulls the full directory from one live peer (rotating), merging the
  /// response like gossip: a rejoining gateway regains the whole view in
  /// one round trip instead of O(peers / fanout) push-gossip rounds.
  void request_anti_entropy();

  sim::Environment& env_;
  sched::Coordinator& coordinator_;
  storage::CheckpointStore& store_;
  db::Database& database_;
  net::Transport& wan_;
  std::string region_;
  std::string gateway_id_;
  RegionPolicy policy_;
  WanPathFn wan_path_;
  sim::PeriodicTimer tick_timer_;

  std::uint64_t digest_seq_ = 0;
  /// Next hand-off id; journaled after the counters so ids stay unique
  /// across restarts (the receiver dedups on (sender, handoff_id)).
  std::uint64_t next_handoff_id_ = 1;
  // All ordered maps: deterministic iteration for reproducible runs.
  /// Replicated federation directory.
  RegionDirectory directory_;
  /// Known peer gateways by region (seeded by the platform, extended by
  /// gossip).  The rotation cursor spreads fanout-limited pushes evenly.
  std::map<std::string, std::string> peers_;
  std::size_t gossip_cursor_ = 0;
  std::map<std::string, OutboundForward> outbound_;       // by job id
  std::map<std::string, util::SimTime> retry_after_;      // forward backoff
  /// Accepted forwards whose JobTransfer has not arrived yet: job id ->
  /// reservation expiry (everything else about the hand-off rides the
  /// transfer itself).
  std::map<std::string, util::SimTime> pending_inbound_;
  std::map<std::string, RemoteJob> remote_jobs_;
  /// Hop chain of every job admitted here via a transfer (origin first,
  /// this region last).  Survives completion and onward chaining, so
  /// provenance outlives the remote_jobs_ entry.
  std::map<std::string, std::vector<std::string>> chains_;
  /// Hand-offs this region has admitted, by job id -> (sender gateway,
  /// handoff id).  Retried duplicates of a processed transfer re-ack from
  /// here instead of re-admitting — essential once the job has chained
  /// onward and no coordinator record remains.  Retained for the run
  /// (one small entry per cross-campus hand-off, like the job archive).
  std::map<std::string, std::pair<std::string, std::uint64_t>>
      handled_handoffs_;
  GatewayStats stats_;
  GatewayRecoveryStats recovery_stats_;
  /// Jitter stream for retry/backoff de-correlation, forked per gateway so
  /// adding a region never perturbs another's draws.
  util::Rng rng_;
  bool started_ = false;
  /// True between crash() and recover(): inbound messages are dropped and
  /// no timers run (the process is down).
  bool crashed_ = false;
  /// Bumped by crash() and recover(); one-shot timeout events capture it
  /// at arm time and bail on mismatch, so a timer armed before a crash can
  /// never fire into rebuilt state.
  std::uint64_t epoch_ = 0;
  /// Rotates anti-entropy pulls across peers.
  std::size_t pull_cursor_ = 0;
};

}  // namespace gpunion::federation
