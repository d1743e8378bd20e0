// Central system database.
//
// §3.2: "State persistence is handled through a centralized database that
// maintains node registrations, resource allocations, and historical
// monitoring data."  Here it keeps control-plane state only: node
// registrations, allocations, the pending queue, provenance and the
// crash-recovery rows.  Monitoring lives in monitor::MetricRegistry and its
// Prometheus exposition, from which a campus monitoring stack would keep
// history (README, "Departures from the paper").  §5.2 identifies this
// database (with heartbeat processing) as the scalability bottleneck
// beyond ~200 nodes, so every store counts its operations.  The simulation
// charges database work no time: op counts feed no event.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hw/node_profile.h"
#include "hw/tenancy.h"
#include "obs/trace_context.h"
#include "util/status.h"
#include "util/time.h"
#include "workload/job.h"

namespace gpunion::db {

enum class NodeStatus { kActive, kUnavailable, kDeparted };

/// One node's registry row: the advertised profile (a restarted
/// coordinator rebuilds its scheduling directory from the registry alone,
/// instead of waiting for every node to re-register) plus its status.
struct NodeRecord : hw::NodeProfile {
  NodeStatus status = NodeStatus::kActive;
  util::SimTime last_heartbeat = 0;
  std::string auth_token_hash;  // sha256 of the issued token
};

enum class AllocationOutcome {
  kRunning,
  kCompleted,
  kMigrated,     // moved to another node (provider departure)
  kKilled,       // provider kill-switch, no recovery requested
  kLost,         // emergency departure with no usable checkpoint
};

struct AllocationRecord {
  std::uint64_t allocation_id = 0;
  std::string job_id;
  std::string machine_id;
  std::vector<int> gpu_indices;
  /// Capacity share per bound GPU: 1/(seats per GPU of the tenancy mode),
  /// so 1.0 for an exclusive allocation.
  double gpu_fraction = 1.0;
  /// Interactive session (bursty duty cycle) vs saturating batch/training;
  /// drives delivered-utilization accounting.
  bool interactive = false;
  util::SimTime started_at = 0;
  util::SimTime ended_at = 0;  // 0 while running
  AllocationOutcome outcome = AllocationOutcome::kRunning;
};

/// A pending resource request in the scheduler's priority queue (§3.5:
/// "a round-robin scheduler which processes pending resource requests from
/// a priority queue stored in the central database").
struct PendingRequest {
  std::string job_id;
  int priority = 0;  // higher first
  util::SimTime submitted_at = 0;
};

/// Region-scoped job provenance: which campus a job was first submitted in
/// and which campus ended up executing it.  Written by the federation
/// gateways on both sides of a cross-campus forward, so either region's
/// database can answer "whose job is this?" after the job has left its
/// origin coordinator entirely.
struct JobProvenance {
  std::string job_id;
  std::string origin_region;
  std::string executing_region;
  util::SimTime recorded_at = 0;
  /// Hop chain "origin>hop>...>executing" for chained re-forwards; a
  /// direct forward reads "origin>executing".  Empty on legacy rows.
  std::string route;
};

/// One job's durable row, keyed by spec.id.  sched::JobRecord is this row
/// plus two queue/dispatch timestamps, so the coordinator persists a job
/// by copying its record's base and a restarted coordinator rebuilds live
/// jobs, per-node indexes and granted-but-undelivered dispatches from it.
struct JobStateRecord {
  workload::JobSpec spec;
  workload::JobPhase phase = workload::JobPhase::kPending;
  std::string node;            // current / last assignment
  std::string preferred_node;  // placement affinity (migrate-back target)
  std::string displaced_from;  // origin node of the last displacement
  bool migrate_back_pending = false;
  std::string migrate_back_target;
  double checkpointed_progress = 0;
  util::SimTime last_checkpoint_at = -1;
  int interruptions = 0;
  int migrations = 0;      // resumes on a different node
  int migrate_backs = 0;   // resumes back on the origin
  util::SimTime submitted_at = 0;
  util::SimTime first_dispatched_at = -1;
  util::SimTime completed_at = -1;
  /// Wall-clock recomputation caused by interruptions (time re-spent on
  /// the executing node redoing work since the restored checkpoint).
  double lost_work_seconds = 0;
  workload::DepartureKind last_interruption_cause =
      workload::DepartureKind::kScheduled;
  std::uint64_t open_allocation = 0;  // db ledger id while running
  std::uint64_t dispatch_generation = 0;  // guards stale timeout events
  bool reclaim_requested = false;  // owner-reclaim already triggered
  int dispatch_rejects = 0;      // consecutive rejections (give up past limit)
  /// Cancelled while a dispatch ack was outstanding: the record stays live
  /// until the ack (or its timeout) settles the in-flight counter, then
  /// retires to the archive.
  bool awaiting_dispatch_settle = false;
  /// How the current/last assignment holds its node: whole GPUs, or a seat
  /// of a shared mode (capacity is returned the same way).
  hw::Tenancy tenancy = hw::Tenancy::kWhole;
  // progress-estimation state for the current run segment
  util::SimTime running_since = -1;
  double segment_start_progress = 0;
  double node_speed = 1.0;  // reference-relative speed of the current node
  /// Causal trace carried through every stage; parent_span advances as
  /// stages complete, and a redispatched job continues it after a crash.
  obs::TraceContext trace;

  bool operator==(const JobStateRecord&) const = default;
};

/// One gateway in-flight outbound forward's durable row, keyed by spec.id.
/// Persisted only once the job is WITHDRAWN from the local coordinator —
/// from that moment this row is the only place the job exists, so a
/// gateway crash without it would lose the job outright.  The gateway's
/// live forward is this row plus its transient state machine fields.
struct ForwardStateRecord {
  enum class State { kAwaitingReply, kAwaitingTransferAck };
  State state = State::kAwaitingReply;
  workload::JobSpec spec;
  double start_progress = 0;
  std::uint64_t checkpoint_bytes = 0;
  int transfer_attempts = 0;
  std::uint64_t handoff_id = 0;  // stamped when the offer is accepted
  /// First-submission region/gateway.  Usually this region — but when a
  /// job hosted here for someone else is forwarded onward (chained
  /// forward during a local outage), provenance and outcome reporting
  /// keep pointing at the true origin.
  std::string origin_region;
  std::string origin_gateway;
  /// Hop provenance ending with THIS region (see JobTransfer::chain).
  std::vector<std::string> chain;
  std::string awaiting_gateway;
  int attempts = 0;
  /// Causal trace carried over from the withdrawn job; the gateway's
  /// fed_* spans chain onto it and it crosses the WAN in JobTransfer.
  obs::TraceContext trace;

  bool operator==(const ForwardStateRecord&) const = default;
};

/// Durable receive-side hand-off dedup row: (sender gateway, handoff id)
/// per admitted job.  Survives a gateway restart so an origin's
/// at-least-once transfer retry is re-acked, never re-admitted.
struct HandoffRecord {
  std::string job_id;
  std::string from_gateway;
  std::uint64_t handoff_id = 0;
};

/// Abstract system-database surface every store implements.  The control
/// plane (Coordinator, RegionGateway) programs against this interface so
/// the single-writer SystemDatabase and the sharded, write-behind
/// ShardedDatabase are interchangeable; the platform runs the sharded store
/// and SystemDatabase is the reference it is tested against.
class Database {
 public:
  virtual ~Database() = default;

  // --- Node registry --------------------------------------------------------
  virtual util::Status upsert_node(NodeRecord record) = 0;
  virtual util::StatusOr<NodeRecord> node(const std::string& machine_id)
      const = 0;
  virtual util::Status set_node_status(const std::string& machine_id,
                                       NodeStatus s) = 0;
  /// Applies many heartbeat touches as one batched write per writer (see
  /// SystemDatabase::touch_heartbeats).  Returns rows updated.
  virtual std::size_t touch_heartbeats(
      const std::vector<std::pair<std::string, util::SimTime>>& batch) = 0;
  virtual std::vector<NodeRecord> nodes() const = 0;

  // --- Allocation ledger -----------------------------------------------------
  virtual std::uint64_t open_allocation(const std::string& job_id,
                                        const std::string& machine_id,
                                        std::vector<int> gpu_indices,
                                        util::SimTime at,
                                        double gpu_fraction = 1.0,
                                        bool interactive = false) = 0;
  virtual util::Status close_allocation(std::uint64_t allocation_id,
                                        AllocationOutcome outcome,
                                        util::SimTime at) = 0;
  virtual std::vector<AllocationRecord> allocations_for_job(
      const std::string& job_id) const = 0;
  virtual const std::vector<AllocationRecord>& allocation_ledger() const = 0;

  // --- Pending request queue ---------------------------------------------------
  virtual void enqueue_request(PendingRequest request) = 0;
  virtual void enqueue_request_front(PendingRequest request) = 0;
  /// Every queued request in scheduling order — priority descending, then
  /// FIFO with front-requeues first — as a copy the caller may walk while
  /// it takes rows.  One fan-out read.
  virtual std::vector<PendingRequest> pending_requests() const = 0;
  /// Takes the job's first queued request off the queue (the scheduling
  /// pass dispatched the job, or found it no longer pending); false if
  /// absent.
  virtual bool take_request(const std::string& job_id) = 0;
  virtual bool remove_request(const std::string& job_id) = 0;
  virtual std::size_t queue_depth() const = 0;

  // --- Job provenance (federation) ---------------------------------------------
  virtual void record_provenance(JobProvenance provenance) = 0;
  virtual const JobProvenance* provenance(const std::string& job_id) const = 0;
  virtual const std::vector<JobProvenance>& provenance_log() const = 0;

  // --- Durable control-plane state (crash recovery) ----------------------------
  // Written by the Coordinator / RegionGateway so a crashed control plane
  // can rebuild itself from the database.  Each row rides the group commit
  // of the decision that produced it (the decision already paid its round
  // trip), so none of these charge ops and the op accounting of both
  // stores stays comparable by construction.
  virtual void put_job_state(JobStateRecord record) = 0;
  virtual bool erase_job_state(const std::string& job_id) = 0;
  virtual const JobStateRecord* job_state(const std::string& job_id) const = 0;
  /// All rows, job-id order (deterministic rebuild).
  virtual std::vector<JobStateRecord> job_states() const = 0;

  /// Small durable counter blobs (stats journals), keyed by owner.
  virtual void put_journal(const std::string& key,
                           std::vector<std::int64_t> values) = 0;
  virtual const std::vector<std::int64_t>* journal(
      const std::string& key) const = 0;

  virtual void put_forward_state(ForwardStateRecord record) = 0;
  virtual bool erase_forward_state(const std::string& job_id) = 0;
  /// All rows, job-id order.
  virtual std::vector<ForwardStateRecord> forward_states() const = 0;

  virtual void put_handoff(HandoffRecord record) = 0;
  /// All rows, job-id order.
  virtual std::vector<HandoffRecord> handoffs() const = 0;

  // --- Op accounting -----------------------------------------------------------
  virtual std::uint64_t op_count() const = 0;
};

class SystemDatabase : public Database {
 public:

  // --- Node registry --------------------------------------------------------
  util::Status upsert_node(NodeRecord record) override;
  util::StatusOr<NodeRecord> node(const std::string& machine_id)
      const override;
  util::Status set_node_status(const std::string& machine_id,
                               NodeStatus s) override;
  /// Applies many heartbeat touches as ONE modeled database operation (a
  /// single batched UPDATE).  Coalescing per-beat writes into periodic
  /// flushes is what keeps the §5.2 "database contention" op rate
  /// O(flushes) instead of O(heartbeats).  Unknown machines are skipped;
  /// returns the number of rows updated.
  std::size_t touch_heartbeats(
      const std::vector<std::pair<std::string, util::SimTime>>& batch)
      override;
  std::vector<NodeRecord> nodes() const override;

  // --- Allocation ledger -----------------------------------------------------
  std::uint64_t open_allocation(const std::string& job_id,
                                const std::string& machine_id,
                                std::vector<int> gpu_indices,
                                util::SimTime at, double gpu_fraction = 1.0,
                                bool interactive = false) override;
  util::Status close_allocation(std::uint64_t allocation_id,
                                AllocationOutcome outcome,
                                util::SimTime at) override;
  std::vector<AllocationRecord> allocations_for_job(
      const std::string& job_id) const override;
  const std::vector<AllocationRecord>& allocation_ledger() const override {
    return ledger_;
  }

  // --- Pending request queue ---------------------------------------------------
  void enqueue_request(PendingRequest request) override;
  /// Re-queues at the *head* of its priority class (displaced jobs keep
  /// their place under GPUnion's policy; Slurm-style resubmission uses the
  /// tail via enqueue_request).
  void enqueue_request_front(PendingRequest request) override;
  std::vector<PendingRequest> pending_requests() const override;
  /// The single writer has no lanes to account: a take is remove_request.
  bool take_request(const std::string& job_id) override;
  /// Removes a queued request by job id (job cancelled); false if absent.
  bool remove_request(const std::string& job_id) override;
  std::size_t queue_depth() const override;

  // --- Job provenance (federation) ---------------------------------------------
  /// Records (or updates) where a job came from and where it executes.
  /// Latest record per job wins for the lookup; the full log is kept for
  /// audit (one appended row per forward hop).
  void record_provenance(JobProvenance provenance) override;
  /// Latest provenance for a job; nullptr for never-forwarded jobs.
  const JobProvenance* provenance(const std::string& job_id) const override;
  const std::vector<JobProvenance>& provenance_log() const override {
    return provenance_log_;
  }

  // --- Durable control-plane state (uncharged; see Database) -------------------
  void put_job_state(JobStateRecord record) override;
  bool erase_job_state(const std::string& job_id) override;
  const JobStateRecord* job_state(const std::string& job_id) const override;
  std::vector<JobStateRecord> job_states() const override;
  void put_journal(const std::string& key,
                   std::vector<std::int64_t> values) override;
  const std::vector<std::int64_t>* journal(
      const std::string& key) const override;
  void put_forward_state(ForwardStateRecord record) override;
  bool erase_forward_state(const std::string& job_id) override;
  std::vector<ForwardStateRecord> forward_states() const override;
  void put_handoff(HandoffRecord record) override;
  std::vector<HandoffRecord> handoffs() const override;

  // --- Op accounting -----------------------------------------------------------
  /// Every public mutation/query above counts as one operation.
  std::uint64_t op_count() const override { return ops_; }

 private:
  void count_op() const { ++ops_; }

  std::map<std::string, NodeRecord> nodes_;  // ordered: deterministic scans
  std::vector<AllocationRecord> ledger_;
  std::unordered_map<std::uint64_t, std::size_t> ledger_index_;
  // priority -> FIFO of requests; processed highest priority first.
  std::map<int, std::deque<PendingRequest>, std::greater<>> queue_;
  std::vector<JobProvenance> provenance_log_;
  std::unordered_map<std::string, std::size_t> provenance_index_;  // latest row
  // Durable control-plane state (ordered: deterministic rebuild scans).
  std::map<std::string, JobStateRecord> job_states_;
  std::map<std::string, std::vector<std::int64_t>> journal_;
  std::map<std::string, ForwardStateRecord> forward_states_;
  std::map<std::string, HandoffRecord> handoffs_;
  std::uint64_t next_allocation_id_ = 1;
  mutable std::uint64_t ops_ = 0;
};

}  // namespace gpunion::db
