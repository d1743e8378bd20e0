// Provider agent — the provider-supremacy implementation (§3.4).
//
// A lightweight daemon on every provider machine.  It advertises capacity,
// executes dispatched workloads in containers, checkpoints training state,
// and — above all — obeys the *local* provider controls unconditionally:
//
//   kill_switch()        instantly terminate all guests, stay joined
//   set_paused(bool)     stop/resume accepting new allocations
//   depart_scheduled()   checkpoint guests within a grace window, notify, leave
//   depart_emergency()   vanish without notice (power pull)
//   rejoin()             register again after any departure
//   reclaim_gpus(n)      evict guests to free GPUs for the owner
//
// The agent never waits for coordinator permission for any of these: it acts
// first and informs the platform afterwards (or not at all, for emergencies —
// the coordinator must detect the loss via heartbeats).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/proto.h"
#include "agent/timeslice.h"
#include "container/runtime.h"
#include "hw/telemetry.h"
#include "net/transport.h"
#include "sim/environment.h"
#include "storage/checkpoint_store.h"
#include "util/status.h"

namespace gpunion::agent {

struct AgentConfig {
  std::string coordinator_id = "coordinator";
  std::string owner_group;
  /// Overwritten by the coordinator's RegisterResponse before anything
  /// reads it: an agent always heartbeats at its coordinator's interval.
  util::Duration heartbeat_interval = 2.0;
  /// A huge interval (1e9) keeps telemetry off the control plane.
  util::Duration telemetry_interval = 30.0;
  /// Checkpoint window honoured by graceful departures ("configurable
  /// periods for checkpoint creation", §3.4).
  util::Duration departure_grace = 120.0;
};

enum class AgentState { kOffline, kActive, kDeparted };

class ProviderAgent {
 public:
  ProviderAgent(sim::Environment& env, net::Transport& transport,
                hw::NodeModel& node, const container::ImageRegistry& registry,
                storage::CheckpointStore& store, AgentConfig config);
  ~ProviderAgent();

  ProviderAgent(const ProviderAgent&) = delete;
  ProviderAgent& operator=(const ProviderAgent&) = delete;

  // --- Provider controls (local, unconditional) ---------------------------
  /// Registers with the coordinator and starts heartbeating.
  void join();
  /// Terminates every guest container immediately; informs the coordinator.
  /// Returns the ids of the killed jobs.
  std::vector<std::string> kill_switch();
  /// Pauses/resumes new allocations (existing guests keep running).
  void set_paused(bool paused);
  /// Graceful exit: final checkpoints within the grace window, then
  /// terminate guests, notify the coordinator and leave the platform.
  void depart_scheduled();
  /// Abrupt exit: guests die, nothing is sent.  The caller should partition
  /// the node in the network model to drop in-flight traffic.
  void depart_emergency();
  /// Re-registers after a departure (same machine id, fresh auth token).
  void rejoin();
  /// Evicts enough guests (gracefully, newest first) to free `gpus` GPUs
  /// for the owner's local work.  Returns the number of GPUs actually freed.
  int reclaim_gpus(int gpus);

  // --- Introspection --------------------------------------------------------
  AgentState state() const { return state_; }
  bool paused() const { return paused_; }
  const std::string& machine_id() const { return machine_id_; }
  std::size_t running_jobs() const { return jobs_.size(); }
  std::vector<std::string> running_job_ids() const;
  /// Live (not yet durable) progress of a running job; -1 when unknown.
  double job_progress(const std::string& job_id) const;
  container::ContainerRuntime& runtime() { return runtime_; }
  std::uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  /// Quantum-scheduler counters (rotations, swap time, thrash actions).
  const TimesliceStats& timeslice_stats() const { return slicer_.stats(); }
  const GpuTimeSlicer& slicer() const { return slicer_; }

 private:
  struct RunningJob {
    workload::JobSpec spec;
    std::string container_id;
    double start_progress = 0;     // durable progress when started here
    double checkpointed_progress = 0;
    std::uint64_t checkpoint_seq = 0;
    util::SimTime effective_start = 0;  // adjusted forward by ckpt pauses
    double speed = 1.0;                 // node speed incl. container overhead
    bool compute_started = false;
    hw::Tenancy tenancy = hw::Tenancy::kWhole;
    bool resident = false;         // time-sliced only: on-device this quantum
    bool pending_pull = false;     // waiting for image layers
    bool pending_restore = false;  // waiting for checkpoint restore data
    std::uint64_t restore_bytes = 0;
    std::string restore_from;
    sim::EventId completion_event = sim::kInvalidEvent;
    sim::EventId checkpoint_event = sim::kInvalidEvent;
  };

  // message handling
  void handle_message(net::Message&& msg);
  void handle_dispatch(DispatchRequest request);
  void handle_kill_job(const KillJobCommand& command);
  void handle_restore_data(const RestoreData& data);
  void handle_image_data(const ImageData& data);
  void advance_dispatch(const std::string& job_id);
  /// Re-issues a lost image-pull / restore request for a stalled dispatch.
  void retry_stalled_dispatch(const std::string& job_id);

  // execution
  void begin_compute(const std::string& job_id);
  void complete_job(const std::string& job_id);
  void periodic_checkpoint(const std::string& job_id);
  /// Writes a checkpoint at current progress; returns stored progress.
  /// `count_pause` extends the job's runtime by the serialization pause.
  util::StatusOr<storage::Checkpoint> write_checkpoint(RunningJob& job,
                                                       bool count_pause);
  void stop_job_events(RunningJob& job);
  double live_progress(const RunningJob& job) const;
  void reject_dispatch(const std::string& job_id, const std::string& reason);

  // time-slicing (quantum scheduler callbacks + bookkeeping)
  /// Folds/accrues progress as the slicer rotates a tenant out/in; a
  /// rotated-in training job resumes at now + swap_pause.
  void on_residency_change(const std::string& job_id, bool resident,
                           util::Duration swap_pause);
  /// Thrash eviction: checkpoint (training), kill the container, drop the
  /// tenant and notify the coordinator (treated like a reclaim).
  void evict_timeslice_tenant(const std::string& job_id);
  /// Removes a departing time-sliced job from its device's slice.
  void drop_from_slicer(const std::string& job_id, const RunningJob& job);

  // messaging helpers
  void send_control(int kind, std::any payload, std::uint64_t bytes);
  void send_register_request();
  void send_heartbeat();
  void send_telemetry();

  sim::Environment& env_;
  net::Transport& transport_;
  hw::NodeModel& node_;
  const container::ImageRegistry& registry_;
  storage::CheckpointStore& store_;
  AgentConfig config_;
  container::ContainerRuntime runtime_;
  hw::NvmlSampler sampler_;
  util::Rng rng_;

  AgentState state_ = AgentState::kOffline;
  bool paused_ = false;
  std::string machine_id_;
  GpuTimeSlicer slicer_;
  std::string auth_token_;
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::map<std::string, RunningJob> jobs_;  // ordered for determinism
  std::unique_ptr<sim::PeriodicTimer> heartbeat_timer_;
  std::unique_ptr<sim::PeriodicTimer> telemetry_timer_;
};

}  // namespace gpunion::agent
