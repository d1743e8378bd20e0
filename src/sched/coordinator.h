// Central scheduler and coordinator (§3.2).
//
// The coordination hub: resource discovery (registration + heartbeats),
// allocation (strategy-driven placement from a priority queue in the system
// database), volatility handling (heartbeat monitor -> automatic migration
// with checkpoint restore), provider-return migrate-back, and operational
// statistics.  Unlike traditional cluster schedulers it never assumes a node
// will stay: every placement is revocable and every mechanism below exists
// to absorb provider-initiated churn.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "agent/proto.h"
#include "db/database.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sched/directory.h"
#include "sched/heartbeat_monitor.h"
#include "sched/migration.h"
#include "sched/placement_engine.h"
#include "sched/policy.h"
#include "sched/reliability.h"
#include "sched/strategies.h"
#include "sim/environment.h"
#include "storage/checkpoint_store.h"
#include "util/stats.h"
#include "util/status.h"

namespace gpunion::sched {

/// How long an interactive request may queue before the student gives up.
inline constexpr util::Duration kSessionPatience = 600.0;
/// Human resubmission delay when auto_migration is off (manual baseline).
inline constexpr util::Duration kManualResubmitDelay = 3600.0;

struct CoordinatorConfig {
  std::string id = "coordinator";
  util::Duration heartbeat_interval = 2.0;
  int heartbeat_miss_threshold = 3;
  /// Placement strategy name, resolved via PlacementStrategyFactory
  /// (round_robin, least_loaded, best_fit, reliability_aware,
  /// packed_sharing, or any externally registered policy).
  std::string strategy = std::string(kRoundRobin);
  PlatformPolicy policy;
  /// Downtime threshold under which a migration counts as successful
  /// (Fig. 3 reporting).
  util::Duration migration_success_window = 600.0;
  /// Optional span sink: when set, every job carries a TraceContext and the
  /// coordinator records submit/queue_wait/placement/dispatch/run/
  /// checkpoint/interrupt spans into it.  Null = tracing off (no cost
  /// beyond the null check).
  obs::Tracer* tracer = nullptr;
};

using JobPhase = workload::JobPhase;
using workload::job_phase_name;
using workload::job_phase_terminal;

/// A job's live record: its durable row (db::JobStateRecord, which
/// persist_job() writes and recovery reads back) plus the two timestamps a
/// restart resets on purpose.
struct JobRecord : db::JobStateRecord {
  /// Start of the current queue residency (submit or last requeue); closes
  /// the queue_wait span at dispatch time.  Recovery restarts it.
  util::SimTime queued_since = 0;
  /// When the current dispatch RPC left the coordinator (start of the
  /// dispatch span; -1 while no dispatch is in flight, as after recovery).
  util::SimTime dispatch_sent_at = -1;
};

struct CoordinatorStats {
  int jobs_submitted = 0;
  int training_submitted = 0;
  int sessions_submitted = 0;
  int jobs_completed = 0;
  int training_completed = 0;
  int sessions_served = 0;
  int sessions_denied = 0;
  int sessions_disrupted = 0;
  int dispatches_sent = 0;
  int dispatches_rejected = 0;
  /// Pending jobs handed to the federation layer for cross-campus
  /// forwarding (withdraw()); they leave this coordinator's books entirely.
  int jobs_withdrawn = 0;
  int interruptions = 0;
  int auth_failures = 0;
  /// Migrate-back accounting for the Fig. 3 "temporary unavailability"
  /// scenario: training jobs displaced by a temporary departure, and how
  /// many of them later resumed back on their origin node.
  int displaced_by_temporary = 0;
  int migrate_back_successes = 0;
  util::SampleSet queue_wait;  // submit -> first dispatch accept, seconds
  /// Control-plane load accounting (the §5.2 bottleneck pair).
  std::uint64_t heartbeats_processed = 0;
  /// Batched heartbeat flushes issued to the database, and how many
  /// per-beat writes they absorbed (ops saved = coalesced - flushes).
  std::uint64_t heartbeat_db_flushes = 0;
  std::uint64_t heartbeat_db_touches_coalesced = 0;

  double migrate_back_rate() const {
    return displaced_by_temporary == 0
               ? 0.0
               : static_cast<double>(migrate_back_successes) /
                     displaced_by_temporary;
  }
};

/// The CoordinatorStats counters the stats journal persists, in journal
/// order.  persist_stats() and the recovery rebuild both walk this one
/// table, so the durable layout cannot drift between writer and reader.
/// queue_wait and the heartbeat counters are deliberately non-durable.
inline constexpr int CoordinatorStats::*kJournaledStats[] = {
    &CoordinatorStats::jobs_submitted,
    &CoordinatorStats::training_submitted,
    &CoordinatorStats::sessions_submitted,
    &CoordinatorStats::jobs_completed,
    &CoordinatorStats::training_completed,
    &CoordinatorStats::sessions_served,
    &CoordinatorStats::sessions_denied,
    &CoordinatorStats::sessions_disrupted,
    &CoordinatorStats::dispatches_sent,
    &CoordinatorStats::dispatches_rejected,
    &CoordinatorStats::jobs_withdrawn,
    &CoordinatorStats::interruptions,
    &CoordinatorStats::auth_failures,
    &CoordinatorStats::displaced_by_temporary,
    &CoordinatorStats::migrate_back_successes,
};

/// What a recovery rebuilt from the durable database.
struct CoordinatorRecoveryStats {
  int recoveries = 0;
  int nodes_rebuilt = 0;       // directory entries restored from the registry
  int jobs_rebuilt = 0;        // live records restored (pending + running)
  int jobs_archived = 0;       // terminal records restored to the archive
  /// kDispatching rows at the crash: granted but never confirmed delivered.
  /// Requeued at the front for immediate re-dispatch; the stale-ack kill
  /// path makes a duplicate run impossible.
  int redispatched = 0;
};

/// Fleet-and-job operational summary aggregated over LIVE and ARCHIVED
/// records alike: retiring a terminal record into the archive must never
/// lose it from operational reporting.  Computed on demand.
struct OperationalStats {
  int live_jobs = 0;      // records still in the active map
  int archived_jobs = 0;  // terminal records retired to the archive
  // Phase census across live + archive.
  int pending = 0;
  int dispatching = 0;
  int running = 0;
  int completed = 0;
  int denied = 0;
  int disrupted = 0;
  int cancelled = 0;
  // Per-record sums across live + archive.
  int interruptions = 0;
  int migrations = 0;
  double lost_work_seconds = 0;
  // Index footprint (O(active) bookkeeping, not O(history)).
  std::size_t nodes_with_assignments = 0;
  std::size_t nodes_with_displaced = 0;
};

class Coordinator {
 public:
  /// `database` may be the single-writer SystemDatabase or the sharded
  /// write-behind ShardedDatabase; the coordinator only sees db::Database.
  Coordinator(sim::Environment& env, net::Transport& transport,
              db::Database& database, storage::CheckpointStore& store,
              CoordinatorConfig config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Attaches to the transport and starts the heartbeat monitor.
  void start();

  // --- Client API -----------------------------------------------------------
  /// Accepts a job into the pending queue.  Fails on duplicate ids.
  /// `start_progress` > 0 seeds durable progress for jobs arriving with a
  /// checkpoint already in this campus's store (cross-campus migration):
  /// the first dispatch restores from it instead of starting cold.
  /// `trace` continues an existing causal trace (federation admit, return
  /// home); default = start a fresh trace rooted at this submit.
  util::Status submit(workload::JobSpec job, double start_progress = 0.0,
                      obs::TraceContext trace = {});
  /// Cancels a pending or running job.
  util::Status cancel(const std::string& job_id);

  /// A pending job handed back to the caller by withdraw(): everything a
  /// federation gateway needs to resubmit it in another region.  The
  /// record's interruption history stays behind in this coordinator's
  /// aggregate stats (it describes what happened HERE).
  struct WithdrawnJob {
    workload::JobSpec spec;
    double checkpointed_progress = 0;
    /// The job's causal trace, so the gateway's forward spans chain onto
    /// the local submit/queue history.
    obs::TraceContext trace;
  };
  /// Removes a PENDING job from this coordinator entirely (queue, record,
  /// indexes — no archive entry) and returns its spec + durable progress.
  /// The federation layer uses this to forward a job to another campus; a
  /// job that is dispatching/running or already terminal cannot be
  /// withdrawn.  The id becomes free for a future submit — the gateway
  /// therefore reserve_id()s every withdrawn id for as long as its forward
  /// is in federation flight, so a tenant resubmitting the same id through
  /// the API gets a clean kFailedPrecondition instead of colliding with
  /// the returning/forwarded copy.
  util::StatusOr<WithdrawnJob> withdraw(const std::string& job_id);

  /// Marks `job_id` as in federation flight: submit() rejects it with
  /// kFailedPrecondition until release_id().  Idempotent; cleared by
  /// crash() (the gateway's recovery re-reserves what its durable forward
  /// rows rebuild).
  void reserve_id(const std::string& job_id);
  void release_id(const std::string& job_id);
  bool id_reserved(const std::string& job_id) const {
    return reserved_ids_.contains(job_id);
  }

  // --- Experiment instrumentation -------------------------------------------
  /// Tells the coordinator what kind of interruption is behind the next
  /// heartbeat loss of `machine_id` (the injector knows; a real deployment
  /// would classify post-hoc).  Cleared when consumed.
  void set_cause_hint(const std::string& machine_id,
                      agent::DepartureKind kind);

  /// Invoked when a job cannot be placed anywhere but its owner's node is
  /// held by guests; the platform wires this to the owner's local reclaim.
  using OnUnplaceable = std::function<void(
      const workload::JobSpec& job, const std::string& owner_node,
      int gpus_needed)>;
  void set_on_unplaceable(OnUnplaceable cb) { on_unplaceable_ = std::move(cb); }

  // --- Introspection ----------------------------------------------------------
  /// Record by id, live or archived; nullptr when unknown.  Archived
  /// records keep their address (map-node handoff), so pointers obtained
  /// while a job was live stay valid after retirement.
  const JobRecord* job(const std::string& job_id) const;
  /// LIVE records only (pending / dispatching / running, plus the brief
  /// window where a job cancelled mid-dispatch holds phase kCancelled
  /// until its ack settles — see JobRecord::awaiting_dispatch_settle).
  /// Terminal records move to archive() so every live scan is O(active).
  const std::map<std::string, JobRecord>& jobs() const { return jobs_; }
  /// Terminal records, compacted (bulky spec payload dropped; scheduling
  /// outcome and accounting fields preserved).
  const std::map<std::string, JobRecord>& archive() const { return archive_; }
  /// Live jobs currently assigned (dispatching or running) to `machine_id`,
  /// in job-id order.  Empty set for unknown nodes.
  const std::set<std::string>& jobs_on(const std::string& machine_id) const;
  /// Live jobs whose last displacement originated on `machine_id`.
  const std::set<std::string>& displaced_from(
      const std::string& machine_id) const;
  /// Aggregated operational summary over live + archived records.
  OperationalStats operational_stats() const;
  const Directory& directory() const { return directory_; }
  Directory& directory() { return directory_; }
  const PlacementEngine& placement_engine() const { return engine_; }
  /// Non-const: eligibility queries repair the lazily-indexed view.
  PlacementEngine& placement_engine() { return engine_; }
  const CoordinatorStats& stats() const { return stats_; }
  const MigrationTracker& migrations() const { return migration_tracker_; }
  const ReliabilityPredictor& reliability() const { return reliability_; }
  const CoordinatorConfig& config() const { return config_; }
  /// Failure-detector introspection (sweep cost counters for the bench).
  const HeartbeatMonitor& heartbeat_monitor() const {
    return heartbeat_monitor_;
  }

  /// Force one scheduling pass (tests).
  void schedule_pass();

  // --- Crash / recovery -------------------------------------------------------
  /// Simulated control-plane crash: every in-memory structure (job records,
  /// directory, indexes, in-flight counters, monitor state, stats) is
  /// dropped, timers stop, incoming messages are ignored, and submit(),
  /// cancel() and withdraw() return kUnavailable and write nothing until
  /// recover().  The transport endpoint stays registered — a real restart
  /// reuses the address.  Scheduled one-shot callbacks (dispatch/session
  /// timeouts) are invalidated by an epoch bump, not cancelled.
  void crash();
  /// Restart after crash(): rebuilds jobs, the node directory, per-node
  /// indexes and heartbeat tracking from the (already recovered) database,
  /// re-arms session timers, requeues in-flight dispatches for re-dispatch,
  /// and resumes the monitor + scheduling loop.  Requires the database's
  /// own recovery to have run first.
  void recover();
  bool crashed() const { return crashed_; }
  const CoordinatorRecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

 private:
  /// What submit(), cancel() and withdraw() return while crashed.
  util::Status down_error() const;

  // message handlers
  void handle_message(net::Message&& msg);
  void handle_register(const agent::RegisterRequest& request);
  void handle_heartbeat(const agent::Heartbeat& beat);
  /// Repairs records whose completion/kill notifications were lost, using
  /// the heartbeat's hosted-job list as the agent's ground truth.
  void reconcile_with_heartbeat(const agent::Heartbeat& beat);
  void handle_dispatch_result(const agent::DispatchResult& result);
  void handle_job_started(const agent::JobStarted& started);
  void handle_job_completed(const agent::JobCompleted& done);
  void handle_checkpoint_notice(const agent::CheckpointNotice& notice);
  void handle_departure_notice(const agent::DepartureNotice& notice);
  void handle_kill_switch_notice(const agent::KillSwitchNotice& notice);
  void handle_return_notice(const agent::ReturnNotice& notice);
  void handle_job_killed_ack(const agent::JobKilledAck& ack);

  // scheduling
  void request_pass();
  bool try_place(JobRecord& record);
  void requeue(JobRecord& record, bool front);
  void dispatch_to(JobRecord& record, const NodeInfo& node,
                   const PlacementDecision& decision);
  void dispatch_timeout(const std::string& job_id, std::uint64_t generation);
  /// `submitted_at` pins the submission the timer was armed for (guards
  /// against a withdrawn-and-resubmitted session under the same id).
  void session_timeout(const std::string& job_id, util::SimTime submitted_at);
  /// Takes the record's capacity on `machine_id` from the scheduling view
  /// (whole GPUs, or one seat of its shared mode).
  void reserve_capacity(const JobRecord& record,
                        const std::string& machine_id);
  /// Returns the record's reserved capacity on `machine_id` to the
  /// scheduling view.
  void release_capacity(const JobRecord& record,
                        const std::string& machine_id);

  // index + archive maintenance
  /// Binds record.node = machine_id and files it in jobs_by_node_.
  void set_assignment(JobRecord& record, const std::string& machine_id);
  /// Clears record.node and removes it from jobs_by_node_.
  void clear_assignment(JobRecord& record);
  /// Rebinds record.displaced_from (empty = clear) in displaced_by_node_.
  void set_displaced_from(JobRecord& record, const std::string& machine_id);
  /// Moves a terminal record into the archive: drops it from every live
  /// index, shrinks its spec payload, and hands the map node over so the
  /// record's address survives.  No-op while the record is non-terminal or
  /// still awaits a dispatch-ack settle (cancel during kDispatching).
  void maybe_retire(const std::string& job_id);
  /// Settles the per-node in-flight dispatch counter of the record's mode
  /// (erasing the entry at zero keeps the map O(nodes with in-flight)).
  void settle_in_flight(const JobRecord& record,
                        const std::string& machine_id);
  /// Writes the heartbeats queued since the last flush as one batch; the
  /// flush timer calls it once per heartbeat interval.
  void flush_heartbeat_db();

  // churn handling
  void on_node_lost(const std::string& machine_id);
  void on_node_returned(const std::string& machine_id);
  /// `at` is the best estimate of when the interruption actually happened
  /// (for heartbeat-detected losses: the last heartbeat, so Fig. 3 downtime
  /// includes detection latency).
  void interrupt_job(JobRecord& record, agent::DepartureKind cause,
                     db::AllocationOutcome outcome, util::SimTime at);
  void interrupt_jobs_on(const std::string& machine_id,
                         agent::DepartureKind cause, util::SimTime at);
  /// Manual coordination (auto_migration off): a human notices the
  /// interruption and resubmits the job kManualResubmitDelay later, if it
  /// is still pending then; the resubmit replaces any queue row the job
  /// already holds.
  void arm_manual_resubmit(const std::string& job_id);
  double estimate_progress(const JobRecord& record) const;
  void trigger_migrate_back(const std::string& machine_id);

  void send_to_agent(const std::string& machine_id, net::Payload payload,
                     std::uint64_t bytes);

  // durability (tentpole: crash-consistent control plane)
  /// Writes the record's durable image to the database (uncharged; the row
  /// rides the group commit of the op that produced the state change) and
  /// refreshes the stats journal.  Called at the end of every state
  /// transition so recovery always sees the latest consistent record.
  void persist_job(const JobRecord& record);
  void persist_stats();
  /// Rebuilds all in-memory state from the durable tables (recover()).
  void rebuild_from_db();

  sim::Environment& env_;
  net::Transport& transport_;
  db::Database& database_;
  storage::CheckpointStore& store_;
  CoordinatorConfig config_;

  Directory directory_;
  ReliabilityPredictor reliability_;
  PlacementEngine engine_;
  MigrationTracker migration_tracker_;
  HeartbeatMonitor heartbeat_monitor_;
  /// Timer-driven so the batch drains even when beats stop (a node-wide
  /// outage must not strand the final window of heartbeat writes).
  sim::PeriodicTimer heartbeat_flush_timer_;
  util::Rng rng_;

  // Live records only; terminal records retire into archive_ so the hot
  // paths (heartbeat reconcile, node loss/return) scan O(active) state no
  // matter how much history accumulates.  Both ordered for determinism.
  std::map<std::string, JobRecord> jobs_;
  std::map<std::string, JobRecord> archive_;
  /// Live jobs with record.node == key (dispatching or running).
  std::unordered_map<std::string, std::set<std::string>> jobs_by_node_;
  /// Live jobs with record.displaced_from == key (migrate-back candidates).
  std::unordered_map<std::string, std::set<std::string>> displaced_by_node_;
  /// Dispatches sent to one node and not yet settled, per tenancy mode.
  struct InFlight {
    int whole = 0;
    hw::SeatCounts seats;
    int& operator[](hw::Tenancy mode) {
      return mode == hw::Tenancy::kWhole ? whole : seats[mode];
    }
    bool empty() const { return whole == 0 && seats == hw::SeatCounts{}; }
  };
  // Sparse: entries exist only while a node has dispatches in flight.
  std::map<std::string, InFlight> in_flight_dispatches_;
  std::map<std::string, agent::DepartureKind> cause_hints_;
  // Heartbeat DB writes accumulated since the last batched flush.
  std::map<std::string, util::SimTime> pending_heartbeat_touches_;
  CoordinatorStats stats_;
  CoordinatorRecoveryStats recovery_stats_;
  OnUnplaceable on_unplaceable_;
  bool pass_scheduled_ = false;
  bool started_ = false;
  /// Crash-in-place: sim objects cannot be destroyed mid-run (scheduled
  /// lambdas capture `this`), so a crash drops state and raises this flag;
  /// handle_message() discards deliveries while it is set.
  bool crashed_ = false;
  /// Withdrawn ids whose forwards are still in federation flight (see
  /// reserve_id); submit() rejects them so a withdraw-then-resubmit race
  /// cannot collide with the returning/forwarded copy.
  std::set<std::string> reserved_ids_;
  /// Bumped on every crash AND recovery.  One-shot callbacks capture the
  /// epoch they were armed in and bail on mismatch, so a timeout armed
  /// before a crash can never fire against the rebuilt incarnation.
  std::uint64_t epoch_ = 0;
};

}  // namespace gpunion::sched
