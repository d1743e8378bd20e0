#include "sched/coordinator.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "util/ids.h"
#include "util/logging.h"
#include "util/sha256.h"

namespace gpunion::sched {

namespace {

/// Journal key for the durable stats counters (one coordinator per DB).
constexpr const char* kStatsJournalKey = "coordinator.stats";

/// Dispatch ack deadline before the target is assumed dead.
constexpr util::Duration kDispatchTimeout = 30.0;

}  // namespace

Coordinator::Coordinator(sim::Environment& env, net::Transport& transport,
                         db::Database& database,
                         storage::CheckpointStore& store,
                         CoordinatorConfig config)
    : env_(env),
      transport_(transport),
      database_(database),
      store_(store),
      config_(std::move(config)),
      engine_(directory_, reliability_, config_.policy, config_.strategy),
      heartbeat_monitor_(env, directory_, config_.heartbeat_interval,
                         config_.heartbeat_miss_threshold,
                         [this](const std::string& id) { on_node_lost(id); }),
      heartbeat_flush_timer_(env, config_.heartbeat_interval,
                             [this] { flush_heartbeat_db(); }),
      rng_(env.fork_rng("coordinator")) {}

Coordinator::~Coordinator() = default;

void Coordinator::start() {
  assert(!started_ && "Coordinator::start called twice");
  started_ = true;
  transport_.register_endpoint(
      config_.id,
      [this](net::Message&& msg) { handle_message(std::move(msg)); });
  heartbeat_monitor_.start();
  heartbeat_flush_timer_.start();
}

// ---------------------------------------------------------------------------
// Client API
// ---------------------------------------------------------------------------

util::Status Coordinator::submit(workload::JobSpec job, double start_progress,
                                 obs::TraceContext trace) {
  // A crashed coordinator has no job table to check ids against, so it
  // accepts nothing; the caller retries after recovery.
  if (crashed_) return down_error();
  if (job.id.empty()) {
    return util::invalid_argument_error("job requires an id");
  }
  if (start_progress < 0.0 || start_progress >= 1.0) {
    return util::invalid_argument_error("start_progress outside [0, 1)");
  }
  if (jobs_.contains(job.id) || archive_.contains(job.id)) {
    return util::already_exists_error("job " + job.id + " already submitted");
  }
  if (reserved_ids_.contains(job.id)) {
    // Withdrawn for a federation forward that has not settled yet: letting
    // a new job take the id now would collide with the returning copy.
    return util::failed_precondition_error(
        "job id " + job.id + " is in federation flight; resubmit later");
  }
  JobRecord record;
  record.spec = std::move(job);
  record.checkpointed_progress = start_progress;
  record.submitted_at = env_.now();
  record.queued_since = env_.now();
  const std::string job_id = record.spec.id;
  if (auto* tr = config_.tracer; tr != nullptr && tr->enabled()) {
    record.trace = trace.valid()
                       ? trace
                       : obs::TraceContext{obs::Tracer::trace_for_job(job_id),
                                           0};
    tr->record(record.trace, obs::stage::kSubmit, config_.id, env_.now(),
               env_.now());
  }
  const bool interactive =
      record.spec.type == workload::JobType::kInteractive;
  jobs_.emplace(job_id, std::move(record));

  ++stats_.jobs_submitted;
  if (interactive) {
    ++stats_.sessions_submitted;
    // The timer pins the submission it was armed for: a session withdrawn
    // by the federation layer and later resubmitted under the same id must
    // not be denied by its predecessor's patience window.
    const util::SimTime submitted = env_.now();
    const std::uint64_t epoch = epoch_;
    env_.schedule_after(kSessionPatience,
                        [this, job_id, submitted, epoch] {
      if (epoch != epoch_) return;  // armed before a crash
      session_timeout(job_id, submitted);
    });
  } else {
    ++stats_.training_submitted;
  }

  database_.enqueue_request(db::PendingRequest{
      job_id, jobs_.at(job_id).spec.requirements.priority, env_.now()});
  persist_job(jobs_.at(job_id));
  request_pass();
  return util::Status();
}

util::Status Coordinator::cancel(const std::string& job_id) {
  if (crashed_) return down_error();
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    if (auto archived = archive_.find(job_id); archived != archive_.end()) {
      return util::failed_precondition_error(
          "job " + job_id + " already " +
          std::string(job_phase_name(archived->second.phase)));
    }
    return util::not_found_error("job " + job_id);
  }
  JobRecord& record = it->second;
  switch (record.phase) {
    case JobPhase::kPending:
      database_.remove_request(job_id);
      record.phase = JobPhase::kCancelled;
      maybe_retire(job_id);
      return util::Status();
    case JobPhase::kDispatching:
    case JobPhase::kRunning: {
      // A cancel mid-dispatch must outlive the outstanding ack so the
      // in-flight counter can settle; the ack/timeout path retires it.
      record.awaiting_dispatch_settle =
          record.phase == JobPhase::kDispatching;
      if (record.open_allocation != 0) {
        (void)database_.close_allocation(record.open_allocation,
                                         db::AllocationOutcome::kKilled,
                                         env_.now());
        record.open_allocation = 0;
      }
      send_to_agent(record.node, agent::kKillJob,
                    agent::KillJobCommand{job_id, /*allow_checkpoint=*/false},
                    agent::kControlBytes);
      release_capacity(record, record.node);
      record.phase = JobPhase::kCancelled;
      migration_tracker_.abandon(job_id);
      persist_job(record);  // may stay live awaiting the ack settle
      request_pass();
      maybe_retire(job_id);
      return util::Status();
    }
    default:
      return util::failed_precondition_error(
          "job " + job_id + " already " +
          std::string(job_phase_name(record.phase)));
  }
}

util::StatusOr<Coordinator::WithdrawnJob> Coordinator::withdraw(
    const std::string& job_id) {
  if (crashed_) return down_error();
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    if (archive_.contains(job_id)) {
      return util::failed_precondition_error("job " + job_id +
                                             " already terminal");
    }
    return util::not_found_error("job " + job_id);
  }
  JobRecord& record = it->second;
  if (record.phase != JobPhase::kPending) {
    return util::failed_precondition_error(
        "job " + job_id + " is " + std::string(job_phase_name(record.phase)) +
        "; only pending jobs can be withdrawn");
  }
  database_.remove_request(job_id);
  migration_tracker_.abandon(job_id);
  set_displaced_from(record, "");  // unindex (displaced pending jobs)
  WithdrawnJob out;
  out.spec = std::move(record.spec);
  out.checkpointed_progress = record.checkpointed_progress;
  out.trace = record.trace;
  jobs_.erase(it);  // no archive entry: the job now belongs elsewhere
  ++stats_.jobs_withdrawn;
  // The job's durable home moves with it: the caller (federation gateway)
  // persists a forward-state row before this erase commits a loss.
  (void)database_.erase_job_state(job_id);
  persist_stats();
  return out;
}

util::Status Coordinator::down_error() const {
  return util::unavailable_error("coordinator " + config_.id +
                                 " is down; retry after recovery");
}

void Coordinator::reserve_id(const std::string& job_id) {
  reserved_ids_.insert(job_id);
}

void Coordinator::release_id(const std::string& job_id) {
  reserved_ids_.erase(job_id);
}

void Coordinator::set_cause_hint(const std::string& machine_id,
                                 agent::DepartureKind kind) {
  cause_hints_[machine_id] = kind;
}

const JobRecord* Coordinator::job(const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  if (it != jobs_.end()) return &it->second;
  auto archived = archive_.find(job_id);
  return archived == archive_.end() ? nullptr : &archived->second;
}

const std::set<std::string>& Coordinator::jobs_on(
    const std::string& machine_id) const {
  static const std::set<std::string> kEmpty;
  auto it = jobs_by_node_.find(machine_id);
  return it == jobs_by_node_.end() ? kEmpty : it->second;
}

const std::set<std::string>& Coordinator::displaced_from(
    const std::string& machine_id) const {
  static const std::set<std::string> kEmpty;
  auto it = displaced_by_node_.find(machine_id);
  return it == displaced_by_node_.end() ? kEmpty : it->second;
}

OperationalStats Coordinator::operational_stats() const {
  OperationalStats out;
  out.live_jobs = static_cast<int>(jobs_.size());
  out.archived_jobs = static_cast<int>(archive_.size());
  auto census = [&out](const JobRecord& record) {
    switch (record.phase) {
      case JobPhase::kPending: ++out.pending; break;
      case JobPhase::kDispatching: ++out.dispatching; break;
      case JobPhase::kRunning: ++out.running; break;
      case JobPhase::kCompleted: ++out.completed; break;
      case JobPhase::kDenied: ++out.denied; break;
      case JobPhase::kSessionDisrupted: ++out.disrupted; break;
      case JobPhase::kCancelled: ++out.cancelled; break;
    }
    out.interruptions += record.interruptions;
    out.migrations += record.migrations;
    out.lost_work_seconds += record.lost_work_seconds;
  };
  for (const auto& [job_id, record] : jobs_) census(record);
  for (const auto& [job_id, record] : archive_) census(record);
  out.nodes_with_assignments = jobs_by_node_.size();
  out.nodes_with_displaced = displaced_by_node_.size();
  return out;
}

// ---------------------------------------------------------------------------
// Index + archive maintenance
// ---------------------------------------------------------------------------

void Coordinator::set_assignment(JobRecord& record,
                                 const std::string& machine_id) {
  if (record.node == machine_id) return;
  clear_assignment(record);
  record.node = machine_id;
  if (!machine_id.empty()) {
    jobs_by_node_[machine_id].insert(record.spec.id);
  }
}

void Coordinator::clear_assignment(JobRecord& record) {
  if (record.node.empty()) return;
  auto it = jobs_by_node_.find(record.node);
  if (it != jobs_by_node_.end()) {
    it->second.erase(record.spec.id);
    if (it->second.empty()) jobs_by_node_.erase(it);
  }
  record.node.clear();
}

void Coordinator::set_displaced_from(JobRecord& record,
                                     const std::string& machine_id) {
  if (record.displaced_from == machine_id) return;
  if (!record.displaced_from.empty()) {
    auto it = displaced_by_node_.find(record.displaced_from);
    if (it != displaced_by_node_.end()) {
      it->second.erase(record.spec.id);
      if (it->second.empty()) displaced_by_node_.erase(it);
    }
  }
  record.displaced_from = machine_id;
  if (!machine_id.empty()) {
    displaced_by_node_[machine_id].insert(record.spec.id);
  }
}

void Coordinator::maybe_retire(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  if (!job_phase_terminal(record.phase) || record.awaiting_dispatch_settle) {
    return;
  }
  // Unindex without clearing record.node: the archived record keeps its
  // last assignment for reporting.
  if (!record.node.empty()) {
    auto node_it = jobs_by_node_.find(record.node);
    if (node_it != jobs_by_node_.end()) {
      node_it->second.erase(job_id);
      if (node_it->second.empty()) jobs_by_node_.erase(node_it);
    }
  }
  set_displaced_from(record, "");  // unindexes and clears the field
  // Compact: drop spec payload nobody reads after the terminal transition
  // (outcome and accounting fields stay).  shrink_to_fit actually returns
  // the capacity — clear() alone keeps the allocation.
  auto drop = [](std::string& s) {
    s.clear();
    s.shrink_to_fit();
  };
  drop(record.spec.image_ref);
  drop(record.spec.owner_node);
  record.spec.preferred_storage.clear();
  record.spec.preferred_storage.shrink_to_fit();
  drop(record.preferred_node);
  drop(record.migrate_back_target);
  record.displaced_from.shrink_to_fit();
  // Hand the map node over: the record's address survives, so pointers
  // taken while the job was live stay valid.
  archive_.insert(jobs_.extract(it));
  // Persist the compacted terminal row: recovery rebuilds the archive from
  // it (phase census and accounting survive a crash).
  persist_job(archive_.at(job_id));
}

void Coordinator::settle_in_flight(const JobRecord& record,
                                   const std::string& machine_id) {
  auto it = in_flight_dispatches_.find(machine_id);
  if (it == in_flight_dispatches_.end()) return;
  int& count = it->second[record.tenancy];
  if (count <= 0) return;
  --count;
  if (it->second.empty()) in_flight_dispatches_.erase(it);
}

void Coordinator::flush_heartbeat_db() {
  if (pending_heartbeat_touches_.empty()) return;
  const std::vector<std::pair<std::string, util::SimTime>> batch(
      pending_heartbeat_touches_.begin(), pending_heartbeat_touches_.end());
  (void)database_.touch_heartbeats(batch);
  pending_heartbeat_touches_.clear();
  ++stats_.heartbeat_db_flushes;
}

// ---------------------------------------------------------------------------
// Durability + crash recovery (tentpole: crash-consistent control plane)
// ---------------------------------------------------------------------------

void Coordinator::persist_job(const JobRecord& record) {
  database_.put_job_state(static_cast<const db::JobStateRecord&>(record));
  persist_stats();
}

void Coordinator::persist_stats() {
  // Every job transition lands here: one allocation per call.
  std::vector<std::int64_t> journal;
  journal.reserve(std::size(kJournaledStats));
  for (const auto counter : kJournaledStats) journal.push_back(stats_.*counter);
  database_.put_journal(kStatsJournalKey, std::move(journal));
}

void Coordinator::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;  // invalidates every armed one-shot callback
  heartbeat_monitor_.stop();
  heartbeat_monitor_.clear();
  heartbeat_flush_timer_.stop();
  jobs_.clear();
  archive_.clear();
  jobs_by_node_.clear();
  displaced_by_node_.clear();
  in_flight_dispatches_.clear();
  cause_hints_.clear();
  reserved_ids_.clear();  // gateway recovery re-reserves from durable rows
  pending_heartbeat_touches_.clear();  // lost: beats not yet flushed
  directory_.clear();
  // Reliability evidence and migration history are in-memory only
  // (documented non-durable): scores reset to steady on restart.
  reliability_ = ReliabilityPredictor{};
  migration_tracker_ = MigrationTracker{};
  stats_ = CoordinatorStats{};
  pass_scheduled_ = false;
  GPUNION_ILOG("coordinator") << config_.id << " crashed";
}

void Coordinator::recover() {
  if (!crashed_) return;
  crashed_ = false;
  ++epoch_;
  rebuild_from_db();
  heartbeat_monitor_.start();
  heartbeat_flush_timer_.start();
  ++recovery_stats_.recoveries;
  GPUNION_ILOG("coordinator")
      << config_.id << " recovered: " << recovery_stats_.nodes_rebuilt
      << " nodes, " << recovery_stats_.jobs_rebuilt << " live jobs, "
      << recovery_stats_.redispatched << " re-dispatched";
  request_pass();
}

void Coordinator::rebuild_from_db() {
  recovery_stats_.nodes_rebuilt = 0;
  recovery_stats_.jobs_rebuilt = 0;
  recovery_stats_.jobs_archived = 0;
  recovery_stats_.redispatched = 0;

  // Stats counters from the journal blob (kJournaledStats order).
  if (const auto* j = database_.journal(kStatsJournalKey);
      j != nullptr && j->size() == std::size(kJournaledStats)) {
    for (std::size_t i = 0; i < j->size(); ++i) {
      stats_.*kJournaledStats[i] = static_cast<int>((*j)[i]);
    }
  }

  // Directory from the durable registry: full hardware profile, status and
  // token hash all survive.  Active nodes start fully free; the running
  // jobs reserved below and the next heartbeat (agent ground truth)
  // correct the scheduling view.  verified_token stays empty — the first
  // beat re-verifies against the hash (slow path once per node).
  for (const db::NodeRecord& row : database_.nodes()) {
    NodeInfo info;
    static_cast<hw::NodeProfile&>(info) = row;
    info.status = row.status;
    const bool active = row.status == db::NodeStatus::kActive;
    info.free_gpus = active ? row.gpu_count : 0;
    info.last_heartbeat = row.last_heartbeat;
    info.token_hash = row.auth_token_hash;
    directory_.upsert(std::move(info));
    if (active) {
      // Fresh detection window from the restart: a node that died during
      // the outage is flagged one deadline after recovery, not instantly.
      heartbeat_monitor_.observe(row.machine_id, env_.now());
    }
    ++recovery_stats_.nodes_rebuilt;
  }

  // Jobs.  Queue rows for kPending jobs survived in the database (they are
  // WAL-durable), so pending jobs are NOT re-enqueued.  kDispatching rows
  // are the crash-window hazard: the dispatch was granted but its delivery
  // never confirmed.  They requeue at the front for immediate re-dispatch;
  // if the original dispatch did land, the agent's eventual ack no longer
  // matches a kDispatching record and the stale-ack path kills the
  // duplicate run.
  for (db::JobStateRecord& row : database_.job_states()) {
    // node and displaced_from stay empty until set_assignment() /
    // set_displaced_from() bind them, which also files the per-node
    // indexes (both skip a field that already holds the value).
    const std::string node = std::exchange(row.node, {});
    const std::string displaced_from = std::exchange(row.displaced_from, {});
    JobRecord record;
    static_cast<db::JobStateRecord&>(record) = std::move(row);
    record.awaiting_dispatch_settle = false;  // nothing in flight survives
    record.queued_since = env_.now();  // queue residency restarts at recovery
    const std::string job_id = record.spec.id;

    if (job_phase_terminal(record.phase)) {
      record.node = node;  // archived rows keep their last assignment
      archive_.emplace(job_id, std::move(record));
      ++recovery_stats_.jobs_archived;
      continue;
    }

    if (record.phase == JobPhase::kDispatching) {
      record.phase = JobPhase::kPending;
      record.preferred_node = node;  // try the granted node first
      if (auto* tr = config_.tracer;
          tr != nullptr && tr->enabled() && record.trace.valid()) {
        tr->record(record.trace, obs::stage::kRecoveryRedispatch, config_.id,
                   env_.now(), env_.now(), "node=" + node);
      }
      auto [it, inserted] = jobs_.emplace(job_id, std::move(record));
      set_displaced_from(it->second, displaced_from);
      database_.enqueue_request_front(db::PendingRequest{
          job_id, it->second.spec.requirements.priority,
          it->second.submitted_at});
      persist_job(it->second);
      ++recovery_stats_.redispatched;
      ++recovery_stats_.jobs_rebuilt;
      continue;
    }

    auto [it, inserted] = jobs_.emplace(job_id, std::move(record));
    JobRecord& live = it->second;
    set_displaced_from(live, displaced_from);

    if (live.phase == JobPhase::kRunning) {
      set_assignment(live, node);
      reserve_capacity(live, node);
    } else if (live.phase == JobPhase::kPending &&
               live.spec.type == workload::JobType::kInteractive) {
      // Re-arm the patience window for the remaining time.
      const util::Duration remaining = std::max(
          0.0, live.submitted_at + kSessionPatience - env_.now());
      const util::SimTime submitted = live.submitted_at;
      const std::uint64_t epoch = epoch_;
      env_.schedule_after(remaining,
                          [this, job_id, submitted, epoch] {
                               if (epoch != epoch_) return;
                               session_timeout(job_id, submitted);
                             });
    } else if (live.phase == JobPhase::kPending &&
               !config_.policy.auto_migration && live.interruptions > 0) {
      // Manual-coordination mode: the human-resubmit timer did not survive
      // the crash and an interrupted pending job may hold no queue row.
      // Re-arm one.  A resubmit that fired before the crash may already
      // have queued the job, and a scheduling pass leaves every row of a
      // job that stays pending in place, so the resubmit replaces that row
      // instead of adding a second one.
      arm_manual_resubmit(job_id);
    }
    ++recovery_stats_.jobs_rebuilt;
  }
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void Coordinator::handle_message(net::Message&& msg) {
  if (crashed_) return;  // a crashed coordinator answers nothing
  switch (msg.kind) {
    case agent::kRegisterRequest:
      handle_register(std::any_cast<const agent::RegisterRequest&>(msg.payload));
      break;
    case agent::kHeartbeat:
      handle_heartbeat(std::any_cast<const agent::Heartbeat&>(msg.payload));
      break;
    case agent::kTelemetryReport:
      break;  // bytes on the wire only: monitoring lives in the registry
    case agent::kDispatchResult:
      handle_dispatch_result(
          std::any_cast<const agent::DispatchResult&>(msg.payload));
      break;
    case agent::kJobStarted:
      handle_job_started(std::any_cast<const agent::JobStarted&>(msg.payload));
      break;
    case agent::kJobCompleted:
      handle_job_completed(
          std::any_cast<const agent::JobCompleted&>(msg.payload));
      break;
    case agent::kCheckpointNotice:
      handle_checkpoint_notice(
          std::any_cast<const agent::CheckpointNotice&>(msg.payload));
      break;
    case agent::kDepartureNotice:
      handle_departure_notice(
          std::any_cast<const agent::DepartureNotice&>(msg.payload));
      break;
    case agent::kKillSwitchNotice:
      handle_kill_switch_notice(
          std::any_cast<const agent::KillSwitchNotice&>(msg.payload));
      break;
    case agent::kReturnNotice:
      handle_return_notice(
          std::any_cast<const agent::ReturnNotice&>(msg.payload));
      break;
    case agent::kJobKilledAck:
      handle_job_killed_ack(
          std::any_cast<const agent::JobKilledAck&>(msg.payload));
      break;
    default:
      GPUNION_WLOG("coordinator") << "unexpected message kind " << msg.kind;
  }
}

void Coordinator::handle_register(const agent::RegisterRequest& request) {
  const NodeInfo* existing = directory_.find(request.machine_id);
  const bool returning =
      existing != nullptr &&
      (existing->status == db::NodeStatus::kDeparted ||
       existing->status == db::NodeStatus::kUnavailable);

  const std::string token = util::make_auth_token(rng_);
  const std::string token_hash = util::Sha256::hex_of(token);

  NodeInfo info;
  static_cast<hw::NodeProfile&>(info) = request;
  info.free_gpus = request.gpu_count;
  info.last_heartbeat = env_.now();
  info.token_hash = token_hash;
  directory_.upsert(std::move(info));
  // A (re)registration starts from a clean slate: no dispatches in flight.
  in_flight_dispatches_.erase(request.machine_id);
  heartbeat_monitor_.observe(request.machine_id, env_.now());

  // The registry row carries the full profile: a restarted coordinator
  // rebuilds its scheduling directory from it alone.
  db::NodeRecord row;
  static_cast<hw::NodeProfile&>(row) = request;
  row.last_heartbeat = env_.now();
  row.auth_token_hash = token_hash;
  (void)database_.upsert_node(std::move(row));

  agent::RegisterResponse response;
  response.accepted = true;
  response.auth_token = token;
  response.heartbeat_interval = config_.heartbeat_interval;
  send_to_agent(request.machine_id, agent::kRegisterResponse, response,
                agent::kRegisterBytes);

  GPUNION_ILOG("coordinator")
      << (returning ? "re-registered " : "registered ") << request.machine_id
      << " (" << request.hostname << ", " << request.gpu_count << "x "
      << request.gpu_model << ")";

  if (returning) {
    on_node_returned(request.machine_id);
  } else {
    request_pass();
  }
}

void Coordinator::handle_heartbeat(const agent::Heartbeat& beat) {
  NodeInfo* node = directory_.find(beat.machine_id);
  if (node == nullptr) return;  // never registered; ignore
  if (beat.auth_token != node->verified_token) {
    if (util::Sha256::hex_of(beat.auth_token) != node->token_hash) {
      ++stats_.auth_failures;
      GPUNION_WLOG("coordinator")
          << "heartbeat with bad token from " << beat.machine_id;
      return;
    }
    node->verified_token = beat.auth_token;
  }
  ++stats_.heartbeats_processed;
  const bool was_unavailable = node->status == db::NodeStatus::kUnavailable;
  node->last_heartbeat = env_.now();
  node->last_heartbeat_seq = beat.seq;
  node->accepting = beat.accepting;
  heartbeat_monitor_.observe(beat.machine_id, env_.now());
  // The agent's counts are ground truth; re-subtract what is still in
  // flight so the scheduling view never double-books.  The in-flight map
  // is sparse (entries exist only while dispatches are outstanding) — a
  // heartbeat must not insert.
  auto flying_it = in_flight_dispatches_.find(beat.machine_id);
  const InFlight flying = flying_it == in_flight_dispatches_.end()
                              ? InFlight{}
                              : flying_it->second;
  node->free_gpus = std::max(0, beat.free_gpus - flying.whole);
  for (const hw::Tenancy mode : hw::kSharedTenancies) {
    node->free_seats[mode] = beat.free_seats[mode];
    for (int i = flying.seats[mode]; i > 0; --i) (void)node->take_seat(mode);
  }
  // The registry write waits for the next batched flush.
  pending_heartbeat_touches_[beat.machine_id] = env_.now();
  ++stats_.heartbeat_db_touches_coalesced;

  if (was_unavailable) {
    node->status = db::NodeStatus::kActive;
    (void)database_.set_node_status(beat.machine_id, db::NodeStatus::kActive);
    GPUNION_ILOG("coordinator")
        << beat.machine_id << " heartbeats resumed; back in the pool";
    on_node_returned(beat.machine_id);
  } else if ((node->free_gpus > 0 ||
              node->free_seats[hw::Tenancy::kFractional] > 0 ||
              node->free_seats[hw::Tenancy::kTimeslice] > 0) &&
             database_.queue_depth() > 0) {
    request_pass();
  }

  reconcile_with_heartbeat(beat);
}

void Coordinator::reconcile_with_heartbeat(const agent::Heartbeat& beat) {
  // A completion/kill notification can be lost in transit; the heartbeat's
  // job list is the agent's ground truth.  Records that have been
  // "running" on this node for several beats but are absent from the list
  // are reconciled: finished if our progress estimate says so, otherwise
  // treated as an interruption and requeued.  The per-node index makes
  // this O(active-on-node); the hash set makes membership O(1) instead of
  // the old O(records x running_jobs) nested scan.
  auto node_jobs = jobs_by_node_.find(beat.machine_id);
  if (node_jobs == jobs_by_node_.end()) return;
  const util::Duration settle = 3.0 * config_.heartbeat_interval;
  const std::unordered_set<std::string_view> hosted(
      beat.running_jobs.begin(), beat.running_jobs.end());
  // Copy the id list: reconciliation mutates the index it walks.
  const std::vector<std::string> assigned(node_jobs->second.begin(),
                                          node_jobs->second.end());
  for (const auto& job_id : assigned) {
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) continue;
    JobRecord& record = it->second;
    if (record.phase != JobPhase::kRunning ||
        record.node != beat.machine_id || record.running_since < 0 ||
        env_.now() - record.running_since < settle) {
      continue;
    }
    if (hosted.contains(std::string_view(job_id))) continue;

    const bool finished =
        record.spec.type == workload::JobType::kInteractive
            ? env_.now() - record.running_since >=
                  0.97 * record.spec.reference_duration
            : estimate_progress(record) >= 0.98;
    if (finished) {
      GPUNION_WLOG("coordinator")
          << job_id << " missing from " << beat.machine_id
          << " heartbeat; reconciling as completed (lost notification)";
      agent::JobCompleted done;
      done.machine_id = beat.machine_id;
      done.job_id = job_id;
      handle_job_completed(done);
    } else {
      GPUNION_WLOG("coordinator")
          << job_id << " missing from " << beat.machine_id
          << " heartbeat; requeueing (lost run)";
      release_capacity(record, beat.machine_id);
      interrupt_job(record, agent::DepartureKind::kEmergency,
                    db::AllocationOutcome::kLost, env_.now());
      maybe_retire(job_id);  // sessions disrupt terminally
    }
  }
}

void Coordinator::handle_dispatch_result(const agent::DispatchResult& result) {
  auto it = jobs_.find(result.job_id);
  JobRecord* record = it == jobs_.end() ? nullptr : &it->second;
  // Settle the in-flight counter for this dispatch, but only when the
  // record's current assignment still names this node: a mismatched late
  // ack means the dispatch was already settled (dispatch timeout or node
  // loss), and decrementing again would eat another job's in-flight count
  // and double-book capacity until the next heartbeat.  The record's
  // tenancy identifies which counter its dispatch incremented — never
  // cross counter types.
  if (record != nullptr && record->node == result.machine_id &&
      (record->phase == JobPhase::kDispatching ||
       record->phase == JobPhase::kCancelled)) {
    settle_in_flight(*record, result.machine_id);
  }

  if (record == nullptr || record->phase != JobPhase::kDispatching ||
      record->node != result.machine_id) {
    // Stale ack (e.g. after a dispatch timeout already requeued the job).
    // If the node actually started the work, kill it to avoid a double run
    // — unless the record already runs the job on this very node: an agent
    // holds one run per job id and re-acks it to a retried dispatch, so a
    // late first accept describes the run the record tracks.
    const bool acks_current_run = record != nullptr &&
                                  record->phase == JobPhase::kRunning &&
                                  record->node == result.machine_id;
    if (result.accepted && !acks_current_run) {
      send_to_agent(result.machine_id, agent::kKillJob,
                    agent::KillJobCommand{result.job_id,
                                          /*allow_checkpoint=*/false},
                    agent::kControlBytes);
    }
    // A cancel that was waiting for this ack can retire now.
    if (record != nullptr && record->awaiting_dispatch_settle &&
        record->node == result.machine_id) {
      record->awaiting_dispatch_settle = false;
      maybe_retire(result.job_id);
    }
    return;
  }

  if (auto* tr = config_.tracer;
      tr != nullptr && tr->enabled() && record->trace.valid()) {
    const util::SimTime sent =
        record->dispatch_sent_at >= 0 ? record->dispatch_sent_at : env_.now();
    tr->record(record->trace, obs::stage::kDispatch, config_.id, sent,
               env_.now(),
               (result.accepted ? "node=" : "rejected,node=") +
                   result.machine_id);
  }
  record->dispatch_sent_at = -1;

  if (!result.accepted) {
    ++stats_.dispatches_rejected;
    ++record->dispatch_rejects;
    release_capacity(*record, result.machine_id);
    clear_assignment(*record);
    GPUNION_DLOG("coordinator") << result.job_id << " rejected by "
                                << result.machine_id << ": " << result.reason;
    if (record->dispatch_rejects >= 20) {
      record->phase = JobPhase::kCancelled;  // give up; configuration problem
      GPUNION_WLOG("coordinator")
          << result.job_id << " cancelled after repeated rejections";
      maybe_retire(result.job_id);
      return;
    }
    requeue(*record, /*front=*/true);
    return;
  }

  record->phase = JobPhase::kRunning;
  record->dispatch_rejects = 0;
  record->reclaim_requested = false;
  record->running_since = env_.now();
  record->segment_start_progress = record->checkpointed_progress;
  if (const NodeInfo* node =
          static_cast<const Directory&>(directory_).find(result.machine_id)) {
    record->node_speed = workload::speed_factor(node->gpu_tflops) *
                         std::max(1, record->spec.requirements.gpu_count);
    if (record->tenancy == hw::Tenancy::kFractional) {
      record->node_speed *= workload::kSharedComputeShare;
    } else if (record->tenancy == hw::Tenancy::kTimeslice) {
      // A time-slice tenant runs at full device speed but only while
      // resident; the expected long-run share under round-robin rotation is
      // 1/N, which is what progress estimation should assume.
      record->node_speed *=
          1.0 / std::max(1, node->seats_per_gpu[hw::Tenancy::kTimeslice]);
    }
  }
  record->open_allocation = database_.open_allocation(
      result.job_id, result.machine_id, result.gpu_indices, env_.now(),
      result.gpu_fraction,
      record->spec.type == workload::JobType::kInteractive);
  if (record->first_dispatched_at < 0) {
    record->first_dispatched_at = env_.now();
    stats_.queue_wait.add(env_.now() - record->submitted_at);
  }
  persist_job(*record);
}

void Coordinator::handle_job_started(const agent::JobStarted& started) {
  auto it = jobs_.find(started.job_id);
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  if (record.phase != JobPhase::kRunning ||
      record.node != started.machine_id) {
    return;
  }
  record.running_since = env_.now();
  record.segment_start_progress = started.start_progress;

  if (migration_tracker_.has_open(started.job_id)) {
    const bool was_migrate_back =
        !record.migrate_back_target.empty() &&
        record.migrate_back_target == started.machine_id;
    migration_tracker_.resumed(started.job_id, started.machine_id, env_.now(),
                               was_migrate_back);
    if (was_migrate_back) {
      ++record.migrate_backs;
      if (record.last_interruption_cause ==
          agent::DepartureKind::kTemporary) {
        ++stats_.migrate_back_successes;
      }
      set_displaced_from(record, "");
    } else if (started.machine_id != record.displaced_from) {
      ++record.migrations;
    }
    record.migrate_back_target.clear();
    record.preferred_node.clear();
  }
  persist_job(record);
}

void Coordinator::handle_job_completed(const agent::JobCompleted& done) {
  auto it = jobs_.find(done.job_id);
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  if (record.phase != JobPhase::kRunning || record.node != done.machine_id) {
    return;  // stale (job was already migrated elsewhere)
  }
  if (auto* tr = config_.tracer;
      tr != nullptr && tr->enabled() && record.trace.valid()) {
    const util::SimTime since =
        record.running_since >= 0 ? record.running_since : env_.now();
    tr->record(record.trace, obs::stage::kRun, config_.id, since, env_.now(),
               "completed,node=" + done.machine_id);
  }
  record.phase = JobPhase::kCompleted;
  record.completed_at = env_.now();
  record.checkpointed_progress = 1.0;
  if (record.open_allocation != 0) {
    (void)database_.close_allocation(record.open_allocation,
                                     db::AllocationOutcome::kCompleted,
                                     env_.now());
    record.open_allocation = 0;
  }
  release_capacity(record, done.machine_id);
  ++stats_.jobs_completed;
  if (record.spec.type == workload::JobType::kInteractive) {
    ++stats_.sessions_served;
  } else {
    ++stats_.training_completed;
  }
  store_.forget(done.job_id);
  migration_tracker_.abandon(done.job_id);
  request_pass();
  maybe_retire(done.job_id);
}

void Coordinator::handle_checkpoint_notice(
    const agent::CheckpointNotice& notice) {
  auto it = jobs_.find(notice.job_id);
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  record.checkpointed_progress =
      std::max(record.checkpointed_progress, notice.progress);
  record.last_checkpoint_at = env_.now();
  if (auto* tr = config_.tracer;
      tr != nullptr && tr->enabled() && record.trace.valid()) {
    // Sibling of the run span, not its successor: checkpoints annotate the
    // run rather than redirect the causal chain.
    tr->record(record.trace, obs::stage::kCheckpoint, config_.id, env_.now(),
               env_.now(), "progress=" + std::to_string(notice.progress),
               /*advance=*/false);
  }
  persist_job(record);
}

void Coordinator::handle_departure_notice(
    const agent::DepartureNotice& notice) {
  // Fresh checkpoint results from the grace window arrive inside the notice.
  for (const auto& departing : notice.jobs) {
    auto it = jobs_.find(departing.job_id);
    if (it == jobs_.end()) continue;
    it->second.checkpointed_progress = std::max(
        it->second.checkpointed_progress, departing.checkpointed_progress);
    it->second.last_checkpoint_at = env_.now();
    persist_job(it->second);
  }
  if (NodeInfo* node = directory_.find(notice.machine_id)) {
    node->status = db::NodeStatus::kDeparted;
    node->free_gpus = 0;
    node->free_seats = {};
  }
  (void)database_.set_node_status(notice.machine_id,
                                  db::NodeStatus::kDeparted);
  reliability_.record_departure(notice.machine_id, env_.now());
  in_flight_dispatches_.erase(notice.machine_id);
  heartbeat_monitor_.forget(notice.machine_id);
  interrupt_jobs_on(notice.machine_id, notice.kind, env_.now());
  GPUNION_ILOG("coordinator") << notice.machine_id << " departed ("
                              << departure_kind_name(notice.kind) << ")";
}

void Coordinator::handle_kill_switch_notice(
    const agent::KillSwitchNotice& notice) {
  for (const auto& job_id : notice.killed_jobs) {
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) continue;
    JobRecord& record = it->second;
    if (record.node != notice.machine_id ||
        (record.phase != JobPhase::kRunning &&
         record.phase != JobPhase::kDispatching)) {
      continue;
    }
    release_capacity(record, notice.machine_id);
    interrupt_job(record, agent::DepartureKind::kReclaim,
                  db::AllocationOutcome::kKilled, env_.now());
    maybe_retire(job_id);  // sessions disrupt terminally
  }
  request_pass();
}

void Coordinator::handle_return_notice(const agent::ReturnNotice& notice) {
  on_node_returned(notice.machine_id);
}

void Coordinator::handle_job_killed_ack(const agent::JobKilledAck& ack) {
  auto it = jobs_.find(ack.job_id);
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  record.checkpointed_progress =
      std::max(record.checkpointed_progress, ack.checkpointed_progress);

  if (!record.migrate_back_pending) {
    persist_job(record);  // progress merge alone
    return;  // cancel path: nothing more
  }
  record.migrate_back_pending = false;
  if (record.phase != JobPhase::kRunning || record.node != ack.machine_id) {
    persist_job(record);
    return;
  }
  if (record.open_allocation != 0) {
    (void)database_.close_allocation(record.open_allocation,
                                     db::AllocationOutcome::kMigrated,
                                     env_.now());
    record.open_allocation = 0;
  }
  release_capacity(record, ack.machine_id);

  auto& migration = migration_tracker_.open(
      ack.job_id, ack.machine_id, agent::DepartureKind::kTemporary, env_.now(),
      record.checkpointed_progress, record.checkpointed_progress, 0.0);
  migration.migrate_back_eviction = true;

  record.preferred_node = record.migrate_back_target;
  clear_assignment(record);
  requeue(record, /*front=*/true);
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

void Coordinator::request_pass() {
  if (pass_scheduled_ || !started_ || crashed_) return;
  pass_scheduled_ = true;
  const std::uint64_t epoch = epoch_;
  env_.schedule_after(0.0, [this, epoch] {
    if (epoch != epoch_) return;  // armed before a crash/recovery
    pass_scheduled_ = false;
    schedule_pass();
  });
}

void Coordinator::schedule_pass() {
  if (crashed_) return;
  // Walk a copy of the queue in order.  A request leaves the queue only
  // when its job is dispatched or no longer pending; a blocked one keeps
  // its place, so a pass over a deep backlog writes nothing for it.
  for (const db::PendingRequest& request : database_.pending_requests()) {
    auto it = jobs_.find(request.job_id);
    const bool stale =  // cancelled / denied / already placed
        it == jobs_.end() || it->second.phase != JobPhase::kPending;
    if (stale || try_place(it->second)) {
      (void)database_.take_request(request.job_id);
    }
  }
}

bool Coordinator::try_place(JobRecord& record) {
  auto decision =
      engine_.place(record.spec, record.preferred_node, env_.now());

  if (!decision) {
    // Nothing free.  If the submitter's own machine is full of guests, the
    // owner can reclaim it (provider supremacy working *for* the owner).
    if (config_.policy.owner_reclaim && on_unplaceable_ &&
        !record.reclaim_requested && !record.spec.owner_node.empty()) {
      record.reclaim_requested = true;
      on_unplaceable_(record.spec, record.spec.owner_node,
                      record.spec.requirements.gpu_count);
    }
    return false;
  }
  dispatch_to(record, *decision->node, *decision);
  return true;
}

void Coordinator::reserve_capacity(const JobRecord& record,
                                   const std::string& machine_id) {
  if (record.tenancy == hw::Tenancy::kWhole) {
    directory_.reserve_gpus(machine_id, record.spec.requirements.gpu_count);
  } else {
    (void)directory_.reserve_seat(machine_id, record.tenancy);
  }
}

void Coordinator::release_capacity(const JobRecord& record,
                                   const std::string& machine_id) {
  if (record.tenancy == hw::Tenancy::kWhole) {
    directory_.release_gpus(machine_id, record.spec.requirements.gpu_count);
  } else {
    directory_.release_seat(machine_id, record.tenancy);
  }
}

void Coordinator::dispatch_to(JobRecord& record, const NodeInfo& node,
                              const PlacementDecision& decision) {
  record.tenancy = decision.tenancy;
  reserve_capacity(record, node.machine_id);
  ++in_flight_dispatches_[node.machine_id][record.tenancy];
  set_assignment(record, node.machine_id);
  record.phase = JobPhase::kDispatching;
  const std::uint64_t generation = ++record.dispatch_generation;
  record.dispatch_sent_at = env_.now();
  if (auto* tr = config_.tracer;
      tr != nullptr && tr->enabled() && record.trace.valid()) {
    tr->record(record.trace, obs::stage::kQueueWait, config_.id,
               record.queued_since, env_.now());
    tr->record(record.trace, obs::stage::kPlacement, config_.id, env_.now(),
               env_.now(),
               "node=" + node.machine_id +
                   (record.tenancy == hw::Tenancy::kWhole
                        ? std::string()
                        : "," + std::string(hw::tenancy_unit(record.tenancy))));
  }

  agent::DispatchRequest request;
  request.job = record.spec;
  request.tenancy = record.tenancy;
  if (config_.policy.checkpoint_restore &&
      record.checkpointed_progress > 0 &&
      record.spec.type == workload::JobType::kTraining) {
    request.start_progress = record.checkpointed_progress;
    auto latest = store_.latest(record.spec.id);
    auto bytes = store_.restore_bytes(record.spec.id);
    if (latest.ok() && bytes.ok()) {
      request.restore_bytes = *bytes;
      request.restore_from = latest->storage_node;
    }
  }
  ++stats_.dispatches_sent;
  send_to_agent(node.machine_id, agent::kDispatch, std::move(request),
                agent::kControlBytes + 340);

  persist_job(record);
  const std::string job_id = record.spec.id;
  const std::uint64_t epoch = epoch_;
  env_.schedule_after(kDispatchTimeout,
                      [this, job_id, generation, epoch] {
    if (epoch != epoch_) return;  // armed before a crash
    dispatch_timeout(job_id, generation);
  });
}

void Coordinator::dispatch_timeout(const std::string& job_id,
                                   std::uint64_t generation) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  if (record.dispatch_generation != generation) return;  // resolved long ago
  if (record.awaiting_dispatch_settle) {
    // Cancelled mid-dispatch and the ack never came: settle the counter so
    // the node's capacity stops being discounted, then retire.
    settle_in_flight(record, record.node);
    record.awaiting_dispatch_settle = false;
    maybe_retire(job_id);
    return;
  }
  if (record.phase != JobPhase::kDispatching) return;
  GPUNION_WLOG("coordinator")
      << "dispatch of " << job_id << " to " << record.node << " timed out";
  if (auto* tr = config_.tracer;
      tr != nullptr && tr->enabled() && record.trace.valid()) {
    const util::SimTime sent =
        record.dispatch_sent_at >= 0 ? record.dispatch_sent_at : env_.now();
    tr->record(record.trace, obs::stage::kDispatch, config_.id, sent,
               env_.now(), "timeout,node=" + record.node);
  }
  record.dispatch_sent_at = -1;
  settle_in_flight(record, record.node);
  release_capacity(record, record.node);
  clear_assignment(record);
  requeue(record, /*front=*/true);
}

void Coordinator::session_timeout(const std::string& job_id,
                                  util::SimTime submitted_at) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  JobRecord& record = it->second;
  if (record.submitted_at != submitted_at) return;  // a later resubmission
  if (record.phase != JobPhase::kPending) return;
  database_.remove_request(job_id);
  record.phase = JobPhase::kDenied;
  ++stats_.sessions_denied;
  maybe_retire(job_id);
}

void Coordinator::requeue(JobRecord& record, bool front) {
  record.phase = JobPhase::kPending;
  record.queued_since = env_.now();
  db::PendingRequest request{record.spec.id,
                             record.spec.requirements.priority,
                             record.submitted_at};
  if (front && !config_.policy.requeue_to_tail) {
    database_.enqueue_request_front(std::move(request));
  } else {
    database_.enqueue_request(std::move(request));
  }
  persist_job(record);
  request_pass();
}

// ---------------------------------------------------------------------------
// Churn handling
// ---------------------------------------------------------------------------

double Coordinator::estimate_progress(const JobRecord& record) const {
  if (record.phase != JobPhase::kRunning || record.running_since < 0) {
    return record.checkpointed_progress;
  }
  // Anchor on the most recent exact observation: a checkpoint notice pins
  // (progress, time) precisely, which bounds estimation drift (from
  // serialization pauses the agent takes) to a single checkpoint interval.
  double base_progress = record.segment_start_progress;
  util::SimTime base_time = record.running_since;
  if (record.last_checkpoint_at >= record.running_since) {
    base_progress = record.checkpointed_progress;
    base_time = record.last_checkpoint_at;
  }
  const double elapsed_work = (env_.now() - base_time) * record.node_speed;
  const double estimate =
      base_progress +
      elapsed_work / std::max(1.0, record.spec.reference_duration);
  return std::clamp(std::max(estimate, record.checkpointed_progress), 0.0,
                    1.0);
}

void Coordinator::interrupt_job(JobRecord& record, agent::DepartureKind cause,
                                db::AllocationOutcome outcome,
                                util::SimTime at) {
  const double progress_at_interruption = estimate_progress(record);
  const double restored =
      config_.policy.checkpoint_restore &&
              record.spec.type == workload::JobType::kTraining
          ? record.checkpointed_progress
          : 0.0;
  // Recomputation measured in wall-clock time on the (lost) node: the job
  // redoes (progress delta x reference duration) of work at node speed.
  const double lost_seconds =
      std::max(0.0, progress_at_interruption - restored) *
      record.spec.reference_duration / std::max(0.1, record.node_speed);

  if (record.open_allocation != 0) {
    (void)database_.close_allocation(record.open_allocation, outcome,
                                     env_.now());
    record.open_allocation = 0;
  }
  ++stats_.interruptions;
  ++record.interruptions;
  record.lost_work_seconds += lost_seconds;
  record.last_interruption_cause = cause;
  if (auto* tr = config_.tracer;
      tr != nullptr && tr->enabled() && record.trace.valid()) {
    if (record.running_since >= 0) {
      tr->record(record.trace, obs::stage::kRun, config_.id,
                 record.running_since, env_.now(),
                 "interrupted,node=" + record.node);
    }
    tr->record(record.trace, obs::stage::kInterrupt, config_.id, at,
               env_.now(),
               std::string("cause=") +
                   std::string(agent::departure_kind_name(cause)));
  }
  set_displaced_from(record, record.node);
  clear_assignment(record);
  record.running_since = -1;
  if (cause == agent::DepartureKind::kTemporary &&
      record.spec.type == workload::JobType::kTraining) {
    ++stats_.displaced_by_temporary;
  }

  if (record.spec.type == workload::JobType::kInteractive) {
    record.phase = JobPhase::kSessionDisrupted;
    ++stats_.sessions_disrupted;
    persist_job(record);
    return;  // sessions are not migrated; the user re-requests
  }

  record.checkpointed_progress = restored;
  migration_tracker_.open(record.spec.id, record.displaced_from, cause, at,
                          progress_at_interruption, restored, lost_seconds);

  if (config_.policy.auto_migration) {
    // Displaced jobs keep their place in line — except reclaim evictions:
    // the owner's job must win the freed GPU, so the guest goes to the tail.
    requeue(record, /*front=*/cause != agent::DepartureKind::kReclaim);
  } else {
    // Manual coordination: a human notices the failure and resubmits later.
    record.phase = JobPhase::kPending;
    record.queued_since = env_.now();
    persist_job(record);
    arm_manual_resubmit(record.spec.id);
  }
}

void Coordinator::arm_manual_resubmit(const std::string& job_id) {
  const std::uint64_t epoch = epoch_;
  env_.schedule_after(kManualResubmitDelay, [this, job_id, epoch] {
    if (epoch != epoch_) return;  // armed before a crash
    auto it = jobs_.find(job_id);
    if (it == jobs_.end() || it->second.phase != JobPhase::kPending) return;
    (void)database_.remove_request(job_id);  // at most one row per job
    database_.enqueue_request(db::PendingRequest{
        job_id, it->second.spec.requirements.priority, env_.now()});
    request_pass();
  });
}

void Coordinator::interrupt_jobs_on(const std::string& machine_id,
                                    agent::DepartureKind cause,
                                    util::SimTime at) {
  auto node_jobs = jobs_by_node_.find(machine_id);
  if (node_jobs != jobs_by_node_.end()) {
    // Copy: interruption unbinds the jobs this walks (id order preserved).
    const std::vector<std::string> assigned(node_jobs->second.begin(),
                                            node_jobs->second.end());
    for (const auto& job_id : assigned) {
      auto it = jobs_.find(job_id);
      if (it == jobs_.end()) continue;
      JobRecord& record = it->second;
      if (record.node != machine_id) continue;
      if (record.phase == JobPhase::kRunning) {
        interrupt_job(record, cause,
                      cause == agent::DepartureKind::kScheduled
                          ? db::AllocationOutcome::kMigrated
                          : db::AllocationOutcome::kLost,
                      at);
        maybe_retire(job_id);  // sessions disrupt terminally
      } else if (record.phase == JobPhase::kDispatching) {
        // In-flight dispatch to a dead node: no allocation opened yet.
        clear_assignment(record);
        requeue(record, /*front=*/true);
      } else if (record.phase == JobPhase::kCancelled &&
                 record.awaiting_dispatch_settle) {
        // Cancelled mid-dispatch to a node that just died: its in-flight
        // counters were wholesale-erased with the node, so there is
        // nothing left to settle.  Retire now — otherwise the pending
        // dispatch timeout could steal a decrement from a fresh dispatch
        // after the node re-registers.
        record.awaiting_dispatch_settle = false;
        maybe_retire(job_id);
      }
    }
  }
  request_pass();
}

void Coordinator::on_node_lost(const std::string& machine_id) {
  NodeInfo* node = directory_.find(machine_id);
  if (node == nullptr || node->status != db::NodeStatus::kActive) return;
  node->status = db::NodeStatus::kUnavailable;
  node->free_gpus = 0;
  node->free_seats = {};
  (void)database_.set_node_status(machine_id, db::NodeStatus::kUnavailable);
  reliability_.record_departure(machine_id, env_.now());
  in_flight_dispatches_.erase(machine_id);
  heartbeat_monitor_.forget(machine_id);

  agent::DepartureKind cause = agent::DepartureKind::kEmergency;
  auto hint = cause_hints_.find(machine_id);
  if (hint != cause_hints_.end()) {
    cause = hint->second;
    cause_hints_.erase(hint);
  }
  // The node actually vanished around its last heartbeat; measuring the
  // interruption from there makes downtime include detection latency.
  interrupt_jobs_on(machine_id, cause, node->last_heartbeat);
}

void Coordinator::on_node_returned(const std::string& machine_id) {
  if (config_.policy.migrate_back) {
    trigger_migrate_back(machine_id);
  }
  // Pending jobs displaced from this node prefer to land back on it.
  // The displaced-from index makes a node's return O(its displaced jobs).
  auto displaced = displaced_by_node_.find(machine_id);
  if (displaced != displaced_by_node_.end()) {
    for (const auto& job_id : displaced->second) {
      auto it = jobs_.find(job_id);
      if (it == jobs_.end()) continue;
      JobRecord& record = it->second;
      if (record.phase == JobPhase::kPending) {
        record.preferred_node = machine_id;
        record.migrate_back_target = machine_id;
        persist_job(record);
      }
    }
  }
  request_pass();
}

void Coordinator::trigger_migrate_back(const std::string& machine_id) {
  auto displaced = displaced_by_node_.find(machine_id);
  if (displaced == displaced_by_node_.end()) return;
  for (const auto& job_id : displaced->second) {
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) continue;
    JobRecord& record = it->second;
    if (record.phase != JobPhase::kRunning) continue;
    if (record.migrate_back_pending || record.node == machine_id) continue;
    if (record.spec.type != workload::JobType::kTraining) continue;
    record.migrate_back_pending = true;
    record.migrate_back_target = machine_id;
    persist_job(record);
    send_to_agent(record.node, agent::kKillJob,
                  agent::KillJobCommand{job_id, /*allow_checkpoint=*/true},
                  agent::kControlBytes);
  }
}

void Coordinator::send_to_agent(const std::string& machine_id, int kind,
                                std::any payload, std::uint64_t bytes) {
  net::Message msg;
  msg.from = config_.id;
  msg.to = machine_id;
  msg.kind = kind;
  msg.traffic_class = net::TrafficClass::kControl;
  msg.size_bytes = bytes;
  msg.payload = std::move(payload);
  (void)transport_.send(std::move(msg));
}

}  // namespace gpunion::sched
