// Agent <-> coordinator protocol.
//
// The paper's agent "exposes REST APIs for resource advertisement, workload
// lifecycle management, and emergency controls" (§3.2).  Here each REST
// endpoint is a typed message riding over net::Transport; payload structs
// are carried in Message::payload (std::any) with Message::kind as the
// discriminator.  Sizes mirror realistic JSON bodies so traffic accounting
// is meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/node_profile.h"
#include "hw/tenancy.h"
#include "util/time.h"
#include "workload/job.h"

namespace gpunion::agent {

/// Message::kind values.
enum MsgKind : int {
  kRegisterRequest = 1,
  kRegisterResponse,
  kHeartbeat,
  kTelemetryReport,
  kDispatch,
  kDispatchResult,
  kJobStarted,
  kKillJob,
  kJobCompleted,
  kCheckpointNotice,
  kDepartureNotice,
  kReturnNotice,
  kKillSwitchNotice, // agent -> coordinator: provider terminated guests
  kJobKilledAck,     // agent -> coordinator: response to kKillJob
  kRestoreRequest,   // agent -> storage endpoint
  kRestoreData,      // storage endpoint -> agent (restore payload bytes)
  kCheckpointData,   // agent -> storage endpoint (backup payload bytes)
  kImagePullRequest, // agent -> image registry endpoint
  kImageData,        // registry endpoint -> agent (layer bytes)
};

using DepartureKind = workload::DepartureKind;
using workload::departure_kind_name;

/// Resource advertisement: the node's hardware and owner profile.
using RegisterRequest = hw::NodeProfile;

struct RegisterResponse {
  bool accepted = false;
  std::string auth_token;
  util::Duration heartbeat_interval = 2.0;
};

struct Heartbeat {
  std::string machine_id;
  std::string auth_token;
  std::uint64_t seq = 0;
  int free_gpus = 0;
  /// Free seats per shared mode on GPUs already open in it (fully-free GPUs
  /// are counted in free_gpus).
  hw::SeatCounts free_seats;
  bool accepting = true;  // false while paused
  /// Ids of jobs currently hosted; lets the coordinator reconcile records
  /// whose completion/kill notification was lost in transit.
  std::vector<std::string> running_jobs;
};

/// Periodic monitoring report.  The coordinator reads none of it; its
/// kTelemetryBytesPerGpu x GPUs on the wire are what the report models.
struct TelemetryReport {
  std::string machine_id;
};

struct DispatchRequest {
  workload::JobSpec job;
  /// Durable progress to resume from (0 for fresh starts).
  double start_progress = 0;
  /// Restore transfer: bytes to pull from `restore_from` before compute
  /// begins (0 when nothing to restore).
  std::uint64_t restore_bytes = 0;
  std::string restore_from;
  /// How the coordinator placed the job: whole devices, a fractional slot,
  /// or a time-slice seat (a full-memory tenant under the per-GPU quantum
  /// scheduler).
  hw::Tenancy tenancy = hw::Tenancy::kWhole;
};

struct DispatchResult {
  std::string machine_id;
  std::string job_id;
  bool accepted = false;
  std::string reason;       // on rejection
  std::string container_id; // on acceptance
  std::vector<int> gpu_indices;  // devices bound on acceptance
  /// Capacity share per bound GPU: 1/(seats per GPU of the mode), so 1.0
  /// for whole devices.  Recorded in the allocation ledger.
  double gpu_fraction = 1.0;
};

/// Compute actually began (after image pull / checkpoint restore).  The
/// coordinator measures migration downtime against this, not the dispatch
/// ack, so restore transfer time is included.
struct JobStarted {
  std::string machine_id;
  std::string job_id;
  double start_progress = 0;
};

struct KillJobCommand {
  std::string job_id;
  /// Allow a final checkpoint before the kill (planned migration); the
  /// kill-switch path uses false.
  bool allow_checkpoint = true;
};

struct JobCompleted {
  std::string machine_id;
  std::string job_id;
};

struct CheckpointNotice {
  std::string machine_id;
  std::string job_id;
  std::uint64_t seq = 0;
  double progress = 0;
  std::uint64_t stored_bytes = 0;
  std::string storage_node;
};

/// Per-job outcome inside a scheduled departure.
struct DepartingJob {
  std::string job_id;
  double checkpointed_progress = 0;
  bool fresh_checkpoint = false;  // captured within the grace window
};

struct DepartureNotice {
  std::string machine_id;
  DepartureKind kind = DepartureKind::kScheduled;
  std::vector<DepartingJob> jobs;
};

struct ReturnNotice {
  std::string machine_id;
};

/// Provider pressed the kill-switch (or reclaimed GPUs for their own work):
/// the listed guest jobs were terminated without grace.
struct KillSwitchNotice {
  std::string machine_id;
  std::vector<std::string> killed_jobs;
};

/// Agent finished handling a coordinator kKillJob command.
struct JobKilledAck {
  std::string machine_id;
  std::string job_id;
  double checkpointed_progress = 0;
  bool fresh_checkpoint = false;
};

struct RestoreRequest {
  std::string requester;  // agent machine id to stream the data to
  std::string job_id;
  std::uint64_t bytes = 0;
};

struct RestoreData {
  std::string job_id;
};

struct CheckpointData {
  std::string job_id;
};

struct ImagePullRequest {
  std::string requester;
  std::string image_ref;
};

struct ImageData {
  std::string image_ref;
};

/// Salt shared by agents and tooling when deriving machine ids from
/// hostnames, so ids are computable anywhere (e.g. workload generators
/// naming a group's home nodes).
inline constexpr std::string_view kMachineIdSalt = "gpunion-campus";

/// Typical encoded sizes (bytes) for control-plane messages, for traffic
/// accounting.  Derived from JSON encodings of the structs above.
constexpr std::uint64_t kRegisterBytes = 640;
constexpr std::uint64_t kHeartbeatBytes = 220;
constexpr std::uint64_t kTelemetryBytesPerGpu = 180;
constexpr std::uint64_t kControlBytes = 300;

}  // namespace gpunion::agent
