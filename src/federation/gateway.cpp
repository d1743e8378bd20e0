#include "federation/gateway.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "util/logging.h"

namespace gpunion::federation {

namespace {

/// "A>B>C" — the hop chain as recorded in JobProvenance::route.
std::string join_chain(const std::vector<std::string>& chain) {
  std::string out;
  for (const auto& hop : chain) {
    if (!out.empty()) out += '>';
    out += hop;
  }
  return out;
}

/// Inverse of join_chain, for rebuilding hosted-job chains from provenance.
std::vector<std::string> split_chain(const std::string& route) {
  std::vector<std::string> chain;
  std::string hop;
  for (char c : route) {
    if (c == '>') {
      if (!hop.empty()) chain.push_back(std::move(hop));
      hop.clear();
    } else {
      hop += c;
    }
  }
  if (!hop.empty()) chain.push_back(std::move(hop));
  return chain;
}

/// Stats journal key (one gateway per region database).
constexpr const char* kStatsJournalKey = "gateway.stats";
/// The journaled counters, then the hand-off id high-water mark.
constexpr std::size_t kStatsJournalSize = std::size(kJournaledStats) + 1;

}  // namespace

RegionGateway::RegionGateway(sim::Environment& env,
                             sched::Coordinator& coordinator,
                             storage::CheckpointStore& store,
                             db::Database& database, net::Transport& wan,
                             std::string region_name, RegionPolicy policy,
                             WanPathFn wan_path)
    : env_(env),
      coordinator_(coordinator),
      store_(store),
      database_(database),
      wan_(wan),
      region_(std::move(region_name)),
      gateway_id_("gw-" + region_),
      policy_(policy),
      wan_path_(std::move(wan_path)),
      tick_timer_(env, policy.digest_interval, [this] { tick(); }),
      directory_(region_),
      rng_(env.fork_rng("gateway:" + region_)) {
  assert(!region_.empty() && "region requires a name");
}

RegionGateway::~RegionGateway() = default;

void RegionGateway::start() {
  assert(!started_ && "RegionGateway::start called twice");
  started_ = true;
  wan_.register_endpoint(
      gateway_id_,
      [this](net::Message&& msg) { handle_message(std::move(msg)); });
  tick();  // first digest goes out immediately, not one interval late
  tick_timer_.start();
}

void RegionGateway::add_peer(const std::string& region,
                             const std::string& gateway_id) {
  if (region == region_) return;
  peers_[region] = gateway_id;
}

void RegionGateway::tick() {
  if (crashed_) return;
  publish_digest();
  sweep_remote_jobs();
  scan_for_forwards();
  // Once a tick, snapshot the counters; the fine-grained sites (withdraw,
  // transfer settle, admission) journal eagerly, so this only bounds the
  // loss window for pure-gossip counters to one digest interval.
  persist_stats();
}

util::Duration RegionGateway::jittered(util::Duration base) {
  if (policy_.retry_jitter <= 0) return base;
  return base * (1.0 + policy_.retry_jitter * (2.0 * rng_.next_double() - 1.0));
}

// ---------------------------------------------------------------------------
// Durability + crash recovery
// ---------------------------------------------------------------------------

void RegionGateway::persist_forward(const std::string& job_id,
                                    const OutboundForward& forward) {
  db::ForwardStateRecord row;
  row.job_id = job_id;
  row.spec = forward.spec;
  row.start_progress = forward.start_progress;
  row.checkpoint_bytes = forward.checkpoint_bytes;
  row.state = static_cast<int>(forward.state);
  row.handoff_id = forward.handoff_id;
  row.transfer_attempts = forward.transfer_attempts;
  row.attempts = forward.attempts;
  row.origin_region = forward.origin_region;
  row.origin_gateway = forward.origin_gateway;
  row.chain = forward.chain;
  row.awaiting_gateway = forward.awaiting_gateway;
  row.recorded_at = env_.now();
  row.trace_id = forward.trace.trace_id;
  row.trace_parent_span = forward.trace.parent_span;
  database_.put_forward_state(std::move(row));
  persist_stats();
}

void RegionGateway::erase_forward(const std::string& job_id) {
  database_.erase_forward_state(job_id);
  persist_stats();
}

void RegionGateway::persist_stats() {
  // next_handoff_id_ follows the counters: handoff ids must stay unique
  // across restarts (the receiver dedups on (sender, handoff_id); reusing
  // one would make a genuinely new hand-off look like a processed duplicate
  // and silently drop the job).
  std::vector<std::int64_t> journal;
  journal.reserve(kStatsJournalSize);
  for (const auto counter : kJournaledStats) {
    journal.push_back(static_cast<std::int64_t>(stats_.*counter));
  }
  journal.push_back(static_cast<std::int64_t>(next_handoff_id_));
  database_.put_journal(kStatsJournalKey, std::move(journal));
}

void RegionGateway::crash() {
  assert(started_ && "crash before start");
  assert(!crashed_ && "gateway crashed twice");
  crashed_ = true;
  ++epoch_;
  tick_timer_.stop();
  outbound_.clear();
  retry_after_.clear();
  pending_inbound_.clear();  // TTL reservations: senders' offers re-run
  remote_jobs_.clear();
  chains_.clear();
  handled_handoffs_.clear();
  directory_.clear();
  stats_ = GatewayStats{};
  digest_seq_ = 0;  // dominance keys on generated_at, so fresh stamps win
  next_handoff_id_ = 1;  // recover() restores the durable high-water mark
  gossip_cursor_ = 0;
  // peers_ survives deliberately: federation membership is provisioning
  // config (the platform seeds it at deploy time), re-installed with the
  // restarted process.  The WAN endpoint stays registered — the crashed_
  // gate in handle_message models the down process dropping packets.
}

void RegionGateway::recover() {
  assert(crashed_ && "recover without crash");
  crashed_ = false;
  ++epoch_;
  ++recovery_stats_.recoveries;
  rebuild_from_db();
  // Same order as start(): announce ourselves immediately (the fresh digest
  // re-enters peers' rankings without waiting an interval), then resume the
  // cadence.
  tick();
  tick_timer_.start();
  request_anti_entropy();
}

void RegionGateway::rebuild_from_db() {
  // Stats journal.  A journal of another length (written before a counter
  // was added) restores nothing — counters restart from zero, which only
  // skews reporting, never correctness.
  if (const std::vector<std::int64_t>* j = database_.journal(kStatsJournalKey);
      j != nullptr && j->size() == kStatsJournalSize) {
    for (std::size_t i = 0; i < std::size(kJournaledStats); ++i) {
      stats_.*kJournaledStats[i] = static_cast<std::uint64_t>((*j)[i]);
    }
    next_handoff_id_ =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(j->back()));
  }
  // Hand-off dedup table: without it, an origin's at-least-once transfer
  // retry arriving after our restart would be re-admitted and the job
  // would run twice.
  for (const db::HandoffRecord& row : database_.handoffs()) {
    handled_handoffs_[row.job_id] = {row.from_gateway, row.handoff_id};
    ++recovery_stats_.handoffs_rebuilt;
  }
  // Hosted guests: live coordinator jobs whose provenance says another
  // region submitted them and this one executes them.  Guests that reached
  // a terminal phase during the outage are already archived — their
  // RemoteOutcome notification is lost (stats-only at the origin).
  for (const auto& [job_id, record] : coordinator_.jobs()) {
    const db::JobProvenance* prov = database_.provenance(job_id);
    if (prov == nullptr) continue;
    if (prov->executing_region != region_ || prov->origin_region == region_) {
      continue;
    }
    remote_jobs_[job_id] = RemoteJob{"gw-" + prov->origin_region,
                                     prov->origin_region, prov->recorded_at};
    std::vector<std::string> chain = split_chain(prov->route);
    if (chain.empty()) chain = {prov->origin_region, region_};
    chains_[job_id] = std::move(chain);
    ++recovery_stats_.remote_jobs_rebuilt;
  }
  // In-flight outbound forwards: each row is the ONLY copy of a withdrawn
  // job.  A hand-off already accepted (awaiting its transfer ack) resumes —
  // the receiver is idempotent across retries, so re-sending the same
  // handoff_id is safe at any point.  One still waiting on an offer reply
  // is repatriated: the pre-crash offer's fate is unknowable, but the
  // target only held a TTL reservation, so resubmitting locally cannot run
  // the job twice.
  for (db::ForwardStateRecord& row : database_.forward_states()) {
    OutboundForward forward;
    forward.state = static_cast<OutboundForward::State>(row.state);
    forward.spec = std::move(row.spec);
    forward.start_progress = row.start_progress;
    forward.checkpoint_bytes = row.checkpoint_bytes;
    forward.transfer_attempts = row.transfer_attempts;
    forward.handoff_id = row.handoff_id;
    forward.origin_region = std::move(row.origin_region);
    forward.origin_gateway = std::move(row.origin_gateway);
    forward.chain = std::move(row.chain);
    forward.awaiting_gateway = std::move(row.awaiting_gateway);
    forward.attempts = row.attempts;
    forward.trace.trace_id = row.trace_id;
    forward.trace.parent_span = row.trace_parent_span;
    auto [it, inserted] = outbound_.emplace(row.job_id, std::move(forward));
    assert(inserted && "duplicate forward-state row");
    // crash() wiped the reservation set; every rebuilt forward is still in
    // flight, so re-reserve before anything can resubmit the id.
    coordinator_.reserve_id(row.job_id);
    if (it->second.state == OutboundForward::State::kAwaitingTransferAck) {
      ++recovery_stats_.forwards_resumed;
      send_transfer(row.job_id);
    } else {
      ++recovery_stats_.forwards_repatriated;
      return_job_home(row.job_id);
    }
  }
}

void RegionGateway::request_anti_entropy() {
  if (peers_.empty()) return;  // federation of one
  auto it = peers_.begin();
  std::advance(it, static_cast<long>(pull_cursor_ % peers_.size()));
  pull_cursor_ = (pull_cursor_ + 1) % peers_.size();
  ++stats_.anti_entropy_pulls;
  send(it->second, kDirectoryPullRequest,
       DirectoryPullRequest{region_, gateway_id_}, kDigestBytes);
}

void RegionGateway::handle_directory_pull(const DirectoryPullRequest& request) {
  ++stats_.anti_entropy_served;
  // The rejoiner is alive; (re)learn it as a peer.
  if (request.from_region != region_) {
    peers_[request.from_region] = request.reply_to;
  }
  DirectoryPullResponse response;
  response.from_region = region_;
  response.from_gateway = gateway_id_;
  response.entries.reserve(directory_.entries().size());
  for (const auto& [region, entry] : directory_.entries()) {
    response.entries.push_back(entry);
  }
  const std::uint64_t bytes =
      kGossipEntryBytes * std::max<std::size_t>(1, response.entries.size());
  send(request.reply_to, kDirectoryPullResponse, std::move(response), bytes);
}

void RegionGateway::handle_directory_pull_response(
    const DirectoryPullResponse& response) {
  if (response.from_region != region_) {
    peers_[response.from_region] = response.from_gateway;
  }
  for (const DirectoryEntry& entry : response.entries) {
    if (directory_.merge(entry, env_.now())) {
      ++stats_.anti_entropy_entries;
      if (entry.region != region_) peers_[entry.region] = entry.gateway_id;
    }
  }
}

// ---------------------------------------------------------------------------
// Gossip
// ---------------------------------------------------------------------------

void RegionGateway::publish_digest() {
  sched::CapacitySummary capacity =
      coordinator_.directory().capacity_summary();
  ++digest_seq_;
  ++stats_.digests_published;
  // Stamp the replica's own entry and push the whole directory to a
  // rotating subset of peers.  Relayed entries keep their ORIGIN's stamps,
  // so a region two hops away still converges on the freshest digest no
  // matter which path it arrived by.
  directory_.update_self(gateway_id_, capacity, digest_seq_, env_.now());
  // peers_ never holds the local region (every insertion site filters it).
  // Peers whose directory entry has aged past the hard TTL are presumed
  // unreachable and deprioritized: when fanout < peers, a permanently
  // dark gateway must not keep eating pushes that live replicas need.
  // They are not abandoned — leftover fanout slots still reach them, and
  // a healed region re-enters everyone's fresh list the moment its own
  // pushes resume (its first gossip refreshes our entry for it).
  std::vector<const std::string*> peer_gateways;
  std::vector<const std::string*> stale_peers;
  peer_gateways.reserve(peers_.size());
  for (const auto& [region, gateway] : peers_) {
    const DirectoryEntry* entry = directory_.entry(region);
    // A peer we have NEVER heard from counts as stale too (it may have
    // been dark since before its first gossip could land); at bootstrap
    // everyone is entry-less, the fresh list is empty and the rotation
    // covers the whole stale list, so nobody is starved.
    const bool stale = entry == nullptr ||
                       env_.now() - entry->generated_at >
                           policy_.directory_hard_ttl;
    (stale ? stale_peers : peer_gateways).push_back(&gateway);
  }
  peer_gateways.insert(peer_gateways.end(), stale_peers.begin(),
                       stale_peers.end());
  if (peer_gateways.empty()) return;  // federation of one
  DirectoryGossip gossip;
  gossip.from_region = region_;
  gossip.from_gateway = gateway_id_;
  gossip.entries.reserve(directory_.entries().size());
  for (const auto& [region, entry] : directory_.entries()) {
    gossip.entries.push_back(entry);
  }
  // The self entry was stamped above, so entries is never empty.
  const std::uint64_t bytes = kGossipEntryBytes * gossip.entries.size();
  const std::size_t fanout =
      std::min<std::size_t>(std::max(1, policy_.gossip_fanout),
                            peer_gateways.size());
  for (std::size_t i = 0; i < fanout; ++i) {
    const std::string& target =
        *peer_gateways[(gossip_cursor_ + i) % peer_gateways.size()];
    send(target, kDirectoryGossip, gossip, bytes);
    ++stats_.gossips_sent;
  }
  gossip_cursor_ = (gossip_cursor_ + fanout) % peer_gateways.size();
}

void RegionGateway::handle_directory_gossip(const DirectoryGossip& gossip) {
  ++stats_.gossips_received;
  // The sender is alive and reachable; (re)learn it as a peer even when
  // every relayed entry is stale.
  if (gossip.from_region != region_) {
    peers_[gossip.from_region] = gossip.from_gateway;
  }
  for (const DirectoryEntry& entry : gossip.entries) {
    if (directory_.merge(entry, env_.now())) {
      // Peer discovery: a region first heard of through a relay becomes a
      // gossip target itself.
      if (entry.region != region_) peers_[entry.region] = entry.gateway_id;
    }
  }
}

// ---------------------------------------------------------------------------
// Outbound: forward local jobs that cannot be served here
// ---------------------------------------------------------------------------

bool RegionGateway::locally_placeable(const workload::JobSpec& job) {
  // The placement engine's own gating (policy, strategy fractional
  // preference, reliability degradation) is the single source of truth:
  // forwarding out a job the engine could place wastes a WAN round-trip,
  // and admitting one it can never place parks the job pending forever.
  return coordinator_.placement_engine().any_eligible(job, env_.now());
}

void RegionGateway::scan_for_forwards() {
  if (!policy_.forward_training && !policy_.forward_interactive) return;
  // Expired backoff entries are dead weight either way: the next check is
  // a fresh decision.  Pruning here bounds the map to the backoff window.
  for (auto it = retry_after_.begin(); it != retry_after_.end();) {
    if (env_.now() >= it->second) {
      it = retry_after_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<std::string> candidates;
  for (const auto& [job_id, record] : coordinator_.jobs()) {
    if (record.phase != sched::JobPhase::kPending) continue;
    if (outbound_.contains(job_id)) continue;
    const bool interactive =
        record.spec.type == workload::JobType::kInteractive;
    if (interactive ? !policy_.forward_interactive
                    : !policy_.forward_training) {
      continue;
    }
    if (env_.now() - record.submitted_at < policy_.forward_after) continue;
    if (retry_after_.contains(job_id)) continue;  // backoff still running
    // Only jobs the local campus cannot serve right now leave it: a node
    // that fits the job's shape means the local scheduler will get there
    // shortly and a WAN round-trip would only add latency.
    if (locally_placeable(record.spec)) continue;
    candidates.push_back(job_id);
  }
  for (const auto& job_id : candidates) initiate_forward(job_id);
}

void RegionGateway::resolve_origin(const std::string& job_id,
                                   OutboundForward& forward) {
  // A chained forward (this region was itself hosting the job for another
  // campus) keeps the true origin on the wire and in provenance, and
  // extends the hop chain instead of restarting it.
  if (auto hosted = remote_jobs_.find(job_id); hosted != remote_jobs_.end()) {
    forward.origin_region = hosted->second.origin_region;
    forward.origin_gateway = hosted->second.origin_gateway;
    // admit_transfer records the chain before the RemoteJob entry and
    // chains_ entries outlive hosting, so a hosted job always has one
    // (ending with this region).
    auto chain = chains_.find(job_id);
    assert(chain != chains_.end() && "hosted job without a chain");
    forward.chain = chain->second;
  } else {
    forward.origin_region = region_;
    forward.origin_gateway = gateway_id_;
    forward.chain = {region_};
  }
}

std::vector<RegionScore> RegionGateway::rank_locally(
    const workload::JobSpec& job, std::uint64_t checkpoint_bytes,
    const std::vector<std::string>& chain) {
  ++stats_.local_rankings;
  std::vector<RegionScore> ranking;
  const util::SimTime now = env_.now();
  const auto& req = job.requirements;
  for (const auto& [region, entry] : directory_.entries()) {
    if (region == region_) continue;
    if (std::find(chain.begin(), chain.end(), region) != chain.end()) {
      ++stats_.chain_loops_avoided;  // path-vector rule: chains stay acyclic
      continue;
    }
    const WanPathModel path =
        wan_path_ ? wan_path_(gateway_id_, entry.gateway_id) : WanPathModel{};
    if (job.type == workload::JobType::kInteractive &&
        path.rtt > policy_.max_interactive_rtt) {
      ++stats_.interactive_rtt_filtered;  // a laggy notebook helps nobody
      continue;
    }
    const util::Duration age = now - entry.generated_at;
    if (age > policy_.directory_hard_ttl) continue;  // presumed unreachable
    // Hardware envelope: could this region *ever* host the shape?
    // Free-capacity staleness is deliberately tolerated (target-side
    // admission settles it); the envelope only changes on (re)registration.
    if (entry.capacity.max_node_gpus < req.gpu_count) continue;
    if (entry.capacity.max_gpu_memory_gb < req.gpu_memory_gb) continue;
    if (entry.capacity.max_compute_capability <
        req.min_compute_capability) {
      continue;
    }
    stats_.directory_age_at_rank.add(age);
    RegionScore score;
    score.region = region;
    score.gateway_id = entry.gateway_id;
    // Expected seconds until the job makes progress in that region:
    // control round-trip + checkpoint shipping at the modeled WAN rate +
    // distrust of stale digests + the expected wait when the replica
    // shows nothing free for this shape.
    const double ship_rate = std::max(path.gbps, 1e-6) * (1e9 / 8.0);
    const bool digest_fits =
        entry.capacity.free_gpus >= req.gpu_count ||
        (req.shareable && req.gpu_count == 1 &&
         std::ranges::any_of(hw::kSharedTenancies, [&](hw::Tenancy mode) {
           return entry.capacity.free_seats[mode] > 0;
         }));
    score.expected_cost =
        path.rtt + static_cast<double>(checkpoint_bytes) / ship_rate +
        policy_.stale_cost_weight * age +
        (digest_fits ? 0.0 : policy_.busy_wait_penalty);
    ranking.push_back(std::move(score));
  }
  // Cheapest expected progress first; region name breaks exact ties so
  // identical replicas rank deterministically.
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const RegionScore& a, const RegionScore& b) {
                     if (a.expected_cost != b.expected_cost) {
                       return a.expected_cost < b.expected_cost;
                     }
                     return a.region < b.region;
                   });
  return ranking;
}

void RegionGateway::initiate_forward(const std::string& job_id) {
  const sched::JobRecord* record = coordinator_.job(job_id);
  assert(record != nullptr);
  // Placement query answered from the local replica: no WAN round-trip,
  // nothing whose death leaves this region unable to ask.
  OutboundForward forward;
  resolve_origin(job_id, forward);
  std::uint64_t checkpoint_bytes = 0;
  if (record->checkpointed_progress > 0) {
    auto bytes = store_.restore_bytes(job_id);
    checkpoint_bytes = bytes.ok() ? *bytes : 0;
  }
  forward.ranking = rank_locally(record->spec, checkpoint_bytes, forward.chain);
  if (forward.ranking.empty()) {
    // Nobody to ask.  The job never left the local queue; just back off.
    retry_after_[job_id] = env_.now() + jittered(policy_.forward_retry_backoff);
    ++stats_.forwards_aborted;
    return;
  }
  auto withdrawn = coordinator_.withdraw(job_id);
  if (!withdrawn.ok()) {
    ++stats_.forwards_aborted;
    return;
  }
  forward.spec = std::move(withdrawn->spec);
  forward.start_progress = withdrawn->checkpointed_progress;
  if (forward.start_progress > 0) {
    forward.checkpoint_bytes = checkpoint_bytes;
    // Progress without a restorable checkpoint chain cannot move campuses.
    if (forward.checkpoint_bytes == 0) forward.start_progress = 0;
  }
  // The id is in federation flight from here until the hand-off settles:
  // a tenant resubmitting it through the API must be refused, or the
  // returning copy would collide (and be silently lost).
  coordinator_.reserve_id(job_id);
  forward.trace = withdrawn->trace;
  if (auto* tr = coordinator_.config().tracer;
      tr != nullptr && tr->enabled() && forward.trace.valid()) {
    tr->record(forward.trace, obs::stage::kFedWithdraw, gateway_id_,
               env_.now(), env_.now());
  }
  auto [it, inserted] = outbound_.emplace(job_id, std::move(forward));
  assert(inserted);
  (void)it;
  try_next_region(job_id);
}

void RegionGateway::try_next_region(const std::string& job_id) {
  auto it = outbound_.find(job_id);
  assert(it != outbound_.end());
  OutboundForward& forward = it->second;
  if (forward.next_region >= forward.ranking.size() ||
      forward.attempts >= policy_.max_forward_attempts) {
    return_job_home(job_id);
    return;
  }
  const RegionScore& target = forward.ranking[forward.next_region++];
  ++forward.attempts;
  if (forward.attempts > 1) ++stats_.reroutes;
  forward.state = OutboundForward::State::kAwaitingReply;
  forward.awaiting_gateway = target.gateway_id;
  forward.offer_sent_at = env_.now();
  ++forward.generation;
  // The durable row mirrors the withdrawn job BEFORE the offer leaves: a
  // crash from here on recovers it (resumed or repatriated), so the
  // withdraw can never become a loss.
  persist_forward(job_id, forward);

  ForwardRequest request;
  request.origin_region = forward.origin_region;
  request.reply_to = gateway_id_;  // the forwarding hop drives the offer
  request.job = forward.spec;
  send(target.gateway_id, kForwardRequest, std::move(request), kControlBytes);
  ++stats_.forwards_attempted;
  arm_timeout(job_id, forward.generation, policy_.forward_timeout);
}

void RegionGateway::return_job_home(const std::string& job_id) {
  auto it = outbound_.find(job_id);
  assert(it != outbound_.end());
  OutboundForward& forward = it->second;
  // The flight is over — the id must be unreserved BEFORE the resubmit, or
  // the coordinator's own guard would refuse its returning job.
  coordinator_.release_id(job_id);
  // The checkpoint chain was never forgotten, so resubmitting with the
  // withdrawn progress restores locally once capacity frees up.  The trace
  // continues: the local re-submit span parents to the last forward span.
  auto resubmitted = coordinator_.submit(std::move(forward.spec),
                                         forward.start_progress,
                                         forward.trace);
  if (!resubmitted.is_ok()) {
    GPUNION_ELOG("gateway") << region_ << " could not return " << job_id
                            << " to the local queue: " << resubmitted;
  }
  ++stats_.forwards_returned;
  retry_after_[job_id] = env_.now() + jittered(policy_.forward_retry_backoff);
  outbound_.erase(it);
  // The resubmit above re-created the coordinator's durable row; only now
  // may the forward row go (never a moment with neither).
  erase_forward(job_id);
}

void RegionGateway::arm_timeout(const std::string& job_id,
                                std::uint64_t generation,
                                util::Duration delay) {
  // The epoch guard outranks the generation guard: a rebuilt forward walks
  // generations from zero again, so a pre-crash timeout could otherwise
  // collide with a post-recovery generation number.
  env_.schedule_after(delay, [this, job_id, generation, epoch = epoch_] {
    if (epoch != epoch_) return;  // armed before a crash/restart
    auto it = outbound_.find(job_id);
    if (it == outbound_.end() || it->second.generation != generation) return;
    switch (it->second.state) {
      case OutboundForward::State::kAwaitingReply:
        // Unanswered offer: treat like a refusal.  A late accept is
        // ignored (awaiting_gateway moved on), and the target's
        // reservation expires on its own, so the job cannot run twice.
        ++stats_.forward_timeouts;
        ++it->second.generation;
        if (auto* tr = coordinator_.config().tracer;
            tr != nullptr && tr->enabled() && it->second.trace.valid()) {
          const util::SimTime sent = it->second.offer_sent_at >= 0
                                         ? it->second.offer_sent_at
                                         : env_.now();
          tr->record(it->second.trace, obs::stage::kFedOffer, gateway_id_,
                     sent, env_.now(),
                     "timeout,gateway=" + it->second.awaiting_gateway);
        }
        it->second.offer_sent_at = -1;
        try_next_region(job_id);
        return;
      case OutboundForward::State::kAwaitingTransferAck:
        // The transfer (or its ack) was lost.  Resend, with backoff, for
        // as long as it takes: the target re-acks idempotently if the job
        // actually landed, and gateways — like coordinators — are campus
        // infrastructure that outlives node churn, so at-least-once
        // delivery here is what keeps a job from ever running twice
        // (giving up and resubmitting locally could duplicate a job whose
        // ack was merely delayed).
        ++stats_.transfer_retries;
        send_transfer(job_id);
        return;
    }
  });
}

void RegionGateway::handle_forward_accept(const ForwardAccept& accept) {
  auto it = outbound_.find(accept.job_id);
  if (it == outbound_.end() ||
      it->second.state != OutboundForward::State::kAwaitingReply ||
      it->second.awaiting_gateway != "gw-" + accept.region) {
    return;  // late accept from a target we already gave up on
  }
  OutboundForward& forward = it->second;
  if (auto* tr = coordinator_.config().tracer;
      tr != nullptr && tr->enabled() && forward.trace.valid()) {
    const util::SimTime sent =
        forward.offer_sent_at >= 0 ? forward.offer_sent_at : env_.now();
    tr->record(forward.trace, obs::stage::kFedOffer, gateway_id_, sent,
               env_.now(), "accepted,region=" + accept.region);
  }
  forward.offer_sent_at = -1;
  forward.state = OutboundForward::State::kAwaitingTransferAck;
  forward.handoff_id = next_handoff_id_++;
  ++stats_.forwards_admitted;
  send_transfer(accept.job_id);
}

void RegionGateway::send_transfer(const std::string& job_id) {
  auto it = outbound_.find(job_id);
  assert(it != outbound_.end());
  OutboundForward& forward = it->second;
  ++forward.transfer_attempts;
  ++forward.generation;
  // Durable before the wire: the attempt counter and handoff id must
  // survive a crash, or the resumed hand-off could reuse a stale attempt
  // number and mis-settle against the ack for this very send.
  persist_forward(job_id, forward);
  JobTransfer transfer;
  transfer.origin_region = forward.origin_region;
  transfer.origin_gateway = forward.origin_gateway;
  transfer.reply_to = gateway_id_;  // acks settle THIS hop's state machine
  transfer.attempt = forward.transfer_attempts;
  transfer.handoff_id = forward.handoff_id;
  transfer.chain = forward.chain;  // hop provenance, ending with this region
  transfer.job = forward.spec;  // keep the original for retries / returns
  transfer.start_progress = forward.start_progress;
  transfer.checkpoint_bytes = forward.checkpoint_bytes;
  if (auto* tr = coordinator_.config().tracer;
      tr != nullptr && tr->enabled() && forward.trace.valid()) {
    // The transfer span's id crosses the WAN while the span is still open:
    // the receiver's fed_admit span parents to it, and the ack closes it
    // here.  Allocated lazily so a crash-recovery resume gets one too.
    if (forward.transfer_span == 0) forward.transfer_span = tr->open_span();
    if (forward.transfer_sent_at < 0) forward.transfer_sent_at = env_.now();
    transfer.trace.trace_id = forward.trace.trace_id;
    transfer.trace.parent_span = forward.transfer_span;
  }
  // The shipment pays for its checkpoint payload on the WAN channel.
  send(forward.awaiting_gateway, kJobTransfer, std::move(transfer),
       kControlBytes + forward.checkpoint_bytes);
  // Exponential backoff (capped): a burst of shipments can back the FIFO
  // WAN channel up past one timeout, and re-shipping multi-GB payloads
  // into the very backlog that delayed them only feeds the spiral.
  // Jitter de-correlates a burst of gateways all resending into the same
  // recovering region at once; the first attempt's deadline stays exact
  // (it is a protocol timeout, not a backoff).
  const int exponent = std::min(3, forward.transfer_attempts - 1);
  const util::Duration deadline =
      policy_.transfer_ack_timeout * static_cast<double>(1 << exponent);
  arm_timeout(job_id, forward.generation,
              exponent > 0 ? jittered(deadline) : deadline);
}

void RegionGateway::handle_transfer_ack(const JobTransferAck& ack) {
  auto it = outbound_.find(ack.job_id);
  if (it == outbound_.end() ||
      it->second.state != OutboundForward::State::kAwaitingTransferAck ||
      it->second.awaiting_gateway != "gw-" + ack.region) {
    return;  // duplicate / late ack; already settled
  }
  OutboundForward& forward = it->second;
  auto close_transfer_span = [&](const std::string& detail) {
    auto* tr = coordinator_.config().tracer;
    if (tr == nullptr || !tr->enabled() || !forward.trace.valid() ||
        forward.transfer_span == 0) {
      return;
    }
    const util::SimTime sent = forward.transfer_sent_at >= 0
                                   ? forward.transfer_sent_at
                                   : env_.now();
    tr->close_span(forward.transfer_span, forward.trace.trace_id,
                   forward.trace.parent_span, obs::stage::kFedTransfer,
                   gateway_id_, sent, env_.now(), detail);
    // Later local spans (a bounced job's re-submit) parent to the transfer.
    forward.trace.parent_span = forward.transfer_span;
    forward.transfer_span = 0;
  };
  if (!ack.accepted) {
    // Only the verdict on the NEWEST attempt counts: an older attempt's
    // refusal may be superseded by a retry already in flight, and taking
    // the job home while that retry can still land would run it twice.
    if (ack.attempt != forward.transfer_attempts) return;
    ++forward.generation;  // invalidate the pending resend
    // The target's reservation lapsed and its live re-admission said no
    // (or its coordinator refused the submit): take the job back.
    ++stats_.transfers_bounced;
    close_transfer_span("bounced,region=" + ack.region);
    return_job_home(ack.job_id);
    return;
  }
  // An accept from ANY attempt settles the hand-off (the receiver is
  // idempotent across retries).
  ++forward.generation;  // invalidate the pending resend
  close_transfer_span("region=" + ack.region + ",attempts=" +
                      std::to_string(forward.transfer_attempts));
  ++stats_.transfers_delivered;
  if (forward.checkpoint_bytes > 0) {
    ++stats_.checkpoints_shipped;
    stats_.checkpoint_bytes_shipped += forward.checkpoint_bytes;
  }
  std::vector<std::string> chain = forward.chain;
  chain.push_back(ack.region);
  database_.record_provenance(db::JobProvenance{
      ack.job_id, forward.origin_region, ack.region, env_.now(),
      join_chain(chain)});
  if (forward.checkpoint_bytes > 0) {
    store_.forget(ack.job_id);  // the chain lives in the new region now
  }
  retry_after_.erase(ack.job_id);
  outbound_.erase(it);
  // Delivered: the job now lives in the remote region, whose coordinator
  // holds the id.  Locally the id may be reused (a fresh submit under it
  // is a new job; the remote copy completes under the remote books).
  coordinator_.release_id(ack.job_id);
  // The hand-off is settled and provenance recorded; the durable forward
  // row has served its purpose.
  erase_forward(ack.job_id);
}

void RegionGateway::handle_forward_refuse(const ForwardRefuse& refuse) {
  auto it = outbound_.find(refuse.job_id);
  if (it == outbound_.end() ||
      it->second.state != OutboundForward::State::kAwaitingReply ||
      it->second.awaiting_gateway != "gw-" + refuse.region) {
    return;
  }
  ++stats_.forwards_refused;
  ++it->second.generation;
  if (auto* tr = coordinator_.config().tracer;
      tr != nullptr && tr->enabled() && it->second.trace.valid()) {
    const util::SimTime sent =
        it->second.offer_sent_at >= 0 ? it->second.offer_sent_at : env_.now();
    tr->record(it->second.trace, obs::stage::kFedOffer, gateway_id_, sent,
               env_.now(), "refused,region=" + refuse.region);
  }
  it->second.offer_sent_at = -1;
  GPUNION_DLOG("gateway") << region_ << " forward of " << refuse.job_id
                          << " refused by " << refuse.region << " ("
                          << refuse.reason << ")";
  try_next_region(refuse.job_id);
}

void RegionGateway::handle_remote_outcome(const RemoteOutcome& outcome) {
  if (outcome.completed) {
    ++stats_.remote_completions;
  } else {
    ++stats_.remote_failures;
  }
}

// ---------------------------------------------------------------------------
// Inbound: admission of jobs forwarded here
// ---------------------------------------------------------------------------

std::string RegionGateway::admission_verdict(const workload::JobSpec& job) {
  if (!policy_.accept_remote) return "policy";
  if (remote_jobs_active() >= policy_.max_remote_jobs) return "admission-cap";
  // An id this coordinator already knows (live or archived) could not be
  // resubmitted here; refusing routes the job to a region that can.
  if (coordinator_.job(job.id) != nullptr) return "duplicate-id";
  // Admission is checked against the LIVE directory, never a digest: this
  // is the region's defence against anyone's stale gossip view.  The
  // shape check is per-node (locally_placeable), so a job no node here
  // could ever host is refused instead of starving in the queue.
  if (!locally_placeable(job)) return "capacity";
  if (policy_.min_free_gpus_reserve > 0) {
    sched::CapacitySummary summary =
        coordinator_.directory().capacity_summary();
    // A job that can land in an already-open seat of a mode this campus's
    // strategy would give it leaves every free whole GPU untouched, so the
    // reserve does not apply.
    const sched::PlacementStrategy& strategy =
        coordinator_.placement_engine().strategy();
    const bool slot_bound =
        std::ranges::any_of(hw::kSharedTenancies, [&](hw::Tenancy mode) {
          return summary.free_seats[mode] > 0 && strategy.wants(mode, job);
        });
    if (!slot_bound && summary.free_gpus - policy_.min_free_gpus_reserve <
                           job.requirements.gpu_count) {
      return "capacity";
    }
  }
  return "";
}

void RegionGateway::handle_forward_request(const ForwardRequest& request) {
  // Settle finished remote jobs first: between ticks, a completed guest
  // would otherwise hold its admission-cap slot and refuse a forward that
  // real capacity could take.
  sweep_remote_jobs();
  // A re-offer while the previous accept's reservation is still alive
  // (our accept was lost) refreshes the reservation and re-accepts — it
  // is the same admission, not a second one.
  if (auto held = pending_inbound_.find(request.job.id);
      held != pending_inbound_.end()) {
    held->second = env_.now() + policy_.reservation_ttl;
    send(request.reply_to, kForwardAccept,
         ForwardAccept{region_, request.job.id}, kDigestBytes);
    return;
  }
  const std::string verdict = admission_verdict(request.job);
  if (verdict.empty()) {
    pending_inbound_[request.job.id] = env_.now() + policy_.reservation_ttl;
    ++stats_.remote_admitted;
    send(request.reply_to, kForwardAccept,
         ForwardAccept{region_, request.job.id}, kDigestBytes);
    return;
  }
  if (verdict == "policy") {
    ++stats_.remote_refused_policy;
  } else if (verdict == "admission-cap") {
    ++stats_.remote_refused_cap;
  } else if (verdict == "duplicate-id") {
    ++stats_.remote_refused_duplicate;
  } else {
    ++stats_.remote_refused_capacity;
  }
  send(request.reply_to, kForwardRefuse,
       ForwardRefuse{region_, request.job.id, verdict}, kDigestBytes);
}

void RegionGateway::handle_job_transfer(const JobTransfer& transfer) {
  ++stats_.transfers_received;
  const std::string& job_id = transfer.job.id;
  // Idempotent: a retried duplicate of a hand-off we already processed —
  // even if the job has since completed here or chained onward and no
  // coordinator record remains — is re-acked, never re-admitted.  The
  // (sender, handoff_id) pair identifies the exact hand-off, so a
  // genuinely NEW hand-off of a job that came back and left again is not
  // mistaken for a duplicate.
  if (auto handled = handled_handoffs_.find(job_id);
      handled != handled_handoffs_.end() &&
      handled->second ==
          std::make_pair(transfer.reply_to, transfer.handoff_id)) {
    send(transfer.reply_to, kJobTransferAck,
         JobTransferAck{region_, job_id, transfer.attempt, true}, kDigestBytes);
    return;
  }
  // A coordinator-known id we did NOT take via this hand-off is refused:
  // acking someone else's id would silently drop the forwarded job.
  if (coordinator_.job(job_id) != nullptr) {
    send(transfer.reply_to, kJobTransferAck,
         JobTransferAck{region_, job_id, transfer.attempt, false}, kDigestBytes);
    return;
  }
  auto reservation = pending_inbound_.find(job_id);
  if (reservation != pending_inbound_.end()) {
    pending_inbound_.erase(reservation);
  } else {
    // The reservation lapsed (slow WAN) or the accept raced a timeout.
    // Re-run live admission so the cap and capacity policy still hold; a
    // refusal is safe because the sender keeps the job until our ack.
    // Sweep first — refusing an already-shipped multi-GB transfer over a
    // guest that finished since the last tick would waste the shipment.
    sweep_remote_jobs();
    if (!admission_verdict(transfer.job).empty()) {
      send(transfer.reply_to, kJobTransferAck,
           JobTransferAck{region_, job_id, transfer.attempt, false}, kDigestBytes);
      return;
    }
    ++stats_.transfers_unreserved;
  }
  const bool taken = admit_transfer(transfer);
  if (taken) {
    handled_handoffs_[job_id] = {transfer.reply_to, transfer.handoff_id};
    // Dedup durable BEFORE the ack leaves: once the sender sees an accept
    // it drops the job, so a crash here must leave behind the row that
    // re-acks (never re-admits) the sender's at-least-once retries.
    database_.put_handoff(db::HandoffRecord{job_id, transfer.reply_to,
                                            transfer.handoff_id, env_.now()});
    persist_stats();
  }
  send(transfer.reply_to, kJobTransferAck,
       JobTransferAck{region_, job_id, transfer.attempt, taken}, kDigestBytes);
}

bool RegionGateway::admit_transfer(const JobTransfer& transfer) {
  const workload::JobSpec& job = transfer.job;
  double progress = transfer.start_progress;
  if (progress > 0) {
    // Seed the local checkpoint store with the shipped state as a fresh
    // full snapshot, so the coordinator's normal dispatch path restores
    // from it exactly like a within-campus migration.
    auto written = store_.write(job.id, job.state.state_bytes,
                                /*dirty_fraction=*/1.0, progress, env_.now());
    if (!written.ok()) {
      GPUNION_WLOG("gateway")
          << region_ << " could not seed checkpoint for forwarded " << job.id
          << " (" << written.status() << "); restarting from scratch";
      progress = 0;
    }
  }
  // The admit span parents to the sender's (still-open) fed_transfer span —
  // this is the edge that stitches the trace across the WAN.
  obs::TraceContext ctx = transfer.trace;
  if (auto* tr = coordinator_.config().tracer;
      tr != nullptr && tr->enabled() && ctx.valid()) {
    tr->record(ctx, obs::stage::kFedAdmit, gateway_id_, env_.now(),
               env_.now(), "from=" + transfer.reply_to);
  }
  auto submitted = coordinator_.submit(job, progress, ctx);
  if (!submitted.is_ok()) {
    // The refused ack sends the job back to its origin's queue.
    GPUNION_WLOG("gateway") << region_ << " could not submit forwarded "
                            << job.id << ": " << submitted;
    return false;
  }
  ++stats_.remote_jobs_taken;
  // The hop chain grows by this region; a legacy sender without one is
  // reconstructed as a direct origin -> here hand-off.
  std::vector<std::string> chain = transfer.chain;
  if (chain.empty()) chain.push_back(transfer.origin_region);
  chain.push_back(region_);
  database_.record_provenance(db::JobProvenance{
      job.id, transfer.origin_region, region_, env_.now(),
      join_chain(chain)});
  chains_[job.id] = std::move(chain);
  remote_jobs_[job.id] =
      RemoteJob{transfer.origin_gateway, transfer.origin_region, env_.now()};
  if (progress > 0) ++stats_.cross_campus_migrations_in;
  return true;
}

void RegionGateway::sweep_remote_jobs() {
  for (auto it = pending_inbound_.begin(); it != pending_inbound_.end();) {
    if (env_.now() >= it->second) {
      ++stats_.reservations_expired;
      it = pending_inbound_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = remote_jobs_.begin(); it != remote_jobs_.end();) {
    const std::string& job_id = it->first;
    const sched::JobRecord* record = coordinator_.job(job_id);
    if (record == nullptr) {
      if (outbound_.contains(job_id)) {
        // Withdrawn for a chained forward that is still in flight; if it
        // fails, return_job_home resubmits here and we are hosting again.
        ++it;
        continue;
      }
      // The job left this region for good (chained forward landed
      // elsewhere): no longer ours to report on.
      it = remote_jobs_.erase(it);
      continue;
    }
    if (!sched::job_phase_terminal(record->phase)) {
      ++it;
      continue;
    }
    RemoteOutcome outcome;
    outcome.region = region_;
    outcome.job_id = job_id;
    outcome.completed = record->phase == sched::JobPhase::kCompleted;
    send(it->second.origin_gateway, kRemoteOutcome, std::move(outcome),
         kDigestBytes);
    it = remote_jobs_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

void RegionGateway::handle_message(net::Message&& msg) {
  if (crashed_) return;  // the process is down; packets fall on the floor
  switch (msg.kind) {
    case kForwardRequest:
      handle_forward_request(
          std::any_cast<const ForwardRequest&>(msg.payload));
      break;
    case kForwardAccept:
      handle_forward_accept(std::any_cast<const ForwardAccept&>(msg.payload));
      break;
    case kForwardRefuse:
      handle_forward_refuse(std::any_cast<const ForwardRefuse&>(msg.payload));
      break;
    case kJobTransfer:
      handle_job_transfer(std::any_cast<const JobTransfer&>(msg.payload));
      break;
    case kJobTransferAck:
      handle_transfer_ack(std::any_cast<const JobTransferAck&>(msg.payload));
      break;
    case kRemoteOutcome:
      handle_remote_outcome(std::any_cast<const RemoteOutcome&>(msg.payload));
      break;
    case kDirectoryGossip:
      handle_directory_gossip(
          std::any_cast<const DirectoryGossip&>(msg.payload));
      break;
    case kDirectoryPullRequest:
      handle_directory_pull(
          std::any_cast<const DirectoryPullRequest&>(msg.payload));
      break;
    case kDirectoryPullResponse:
      handle_directory_pull_response(
          std::any_cast<const DirectoryPullResponse&>(msg.payload));
      break;
    default:
      GPUNION_WLOG("gateway") << gateway_id_ << " unexpected message kind "
                              << msg.kind;
  }
}

void RegionGateway::send(const std::string& to, int kind, std::any payload,
                         std::uint64_t bytes) {
  net::Message msg;
  msg.from = gateway_id_;
  msg.to = to;
  msg.kind = kind;
  msg.traffic_class = net::TrafficClass::kFederation;
  msg.size_bytes = bytes;
  msg.payload = std::move(payload);
  (void)wan_.send(std::move(msg));
}

}  // namespace gpunion::federation
