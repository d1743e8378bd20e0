// Container lifecycle model.
//
// Each GPUnion workload runs in an isolated user-space container with
// cgroup-style resource limits, a seccomp profile and a GPU visibility mask
// (NVIDIA_VISIBLE_DEVICES), per §3.3.  The FSM below mirrors the OCI runtime
// states plus GPUnion's checkpointing extension.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "container/image.h"
#include "hw/tenancy.h"
#include "util/status.h"
#include "util/time.h"

namespace gpunion::container {

enum class ContainerState {
  kCreated,
  kRunning,
  kCheckpointing,  // running, with a checkpoint being captured
  kExited,         // finished by itself
  kKilled,         // terminated by the kill-switch or a kill command
};

std::string_view container_state_name(ContainerState s);

/// Execution mode from §3.3: interactive Jupyter environments vs batch jobs.
enum class ExecutionMode { kInteractive, kBatch };

/// cgroup-style resource bounds enforced on the guest.
struct ResourceLimits {
  std::vector<int> gpu_indices;   // devices exposed via the visibility mask
  /// How the devices are held: whole, or one seat of a shared mode on one
  /// GPU.  A time-sliced tenant's gpu_memory_gb is its working set.
  hw::Tenancy tenancy = hw::Tenancy::kWhole;
  double gpu_memory_gb = 0;       // per-GPU VRAM budget
  /// Capacity share per bound GPU: 1/(seats per GPU of the mode), so 1.0
  /// for a whole device.
  double gpu_fraction = 1.0;
  double host_memory_gb = 8;
  double cpu_cores = 4;
};

/// Simplified seccomp policy: the default profile blocks host-affecting
/// syscall groups; unconfined is rejected for guest workloads.
enum class SeccompProfile { kDefault, kUnconfined };

struct ContainerConfig {
  Image image;
  ExecutionMode mode = ExecutionMode::kBatch;
  std::string entrypoint = "python train.py";
  ResourceLimits limits;
  SeccompProfile seccomp = SeccompProfile::kDefault;
  std::map<std::string, std::string> env;  // includes NVIDIA_VISIBLE_DEVICES
};

/// Lifecycle event record (the "application metrics" of §3.5).
struct ContainerEvent {
  util::SimTime at;
  std::string what;  // "created", "started", "checkpoint-begin", ...
};

class Container {
 public:
  Container(std::string id, ContainerConfig config, util::SimTime now);

  const std::string& id() const { return id_; }
  const ContainerConfig& config() const { return config_; }
  ContainerState state() const { return state_; }
  const std::vector<ContainerEvent>& events() const { return events_; }

  /// created -> running.
  util::Status start(util::SimTime now);
  /// running -> checkpointing.  Only one checkpoint at a time.
  util::Status begin_checkpoint(util::SimTime now);
  /// checkpointing -> running.
  util::Status end_checkpoint(util::SimTime now);
  /// any live state -> exited (normal completion).
  util::Status exit(util::SimTime now);
  /// any live state -> killed.  Always succeeds on a live container: the
  /// kill-switch is unconditional (§3.4).
  util::Status kill(util::SimTime now);

  bool live() const {
    return state_ != ContainerState::kExited &&
           state_ != ContainerState::kKilled;
  }

  /// The guest-visible device mask, e.g. "0,2".
  std::string visible_devices() const;

  util::SimTime created_at() const { return created_at_; }
  util::SimTime started_at() const { return started_at_; }
  util::SimTime finished_at() const { return finished_at_; }

 private:
  void record(util::SimTime at, std::string what);

  std::string id_;
  ContainerConfig config_;
  ContainerState state_ = ContainerState::kCreated;
  std::vector<ContainerEvent> events_;
  util::SimTime created_at_;
  util::SimTime started_at_ = 0;
  util::SimTime finished_at_ = 0;
};

}  // namespace gpunion::container
