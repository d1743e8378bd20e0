// Job model.
//
// GPUnion serves two execution modes (§3.3): interactive research
// environments (Jupyter sessions) and batch/training workloads.  Training
// jobs are modelled analytically: a job is `total work` expressed in
// reference-GPU seconds; a faster GPU finishes proportionally sooner.
// Progress is durable only up to the last checkpoint — the quantity at stake
// in the Fig. 3 interruption experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/tenancy.h"
#include "util/time.h"

namespace gpunion::workload {

enum class JobType { kTraining, kInteractive, kBatch };

std::string_view job_type_name(JobType t);

/// Where a job stands in the coordinator's lifecycle.
enum class JobPhase {
  kPending,
  kDispatching,   // dispatch sent, ack outstanding
  kRunning,
  kCompleted,
  kDenied,            // interactive request timed out in queue
  kSessionDisrupted,  // interactive session killed by churn
  kCancelled,
};

std::string_view job_phase_name(JobPhase p);

/// True for phases a record can never leave (eligible for the archive).
bool job_phase_terminal(JobPhase p);

/// Why a provider left; drives the coordinator's recovery path and the
/// Fig. 3 scenario taxonomy.
enum class DepartureKind {
  kScheduled,    // graceful shutdown with checkpoint grace
  kEmergency,    // immediate disconnect, no notice (detected via heartbeats)
  kTemporary,    // short unavailability, provider returns
  kReclaim,      // owner kill-switch / GPU reclaim (node stays in the fleet)
};

std::string_view departure_kind_name(DepartureKind k);

/// Scheduler-visible resource constraints (§3.5: "Resource allocation
/// decisions consider GPU memory requirements, CUDA compute capability
/// constraints and provider volatility predictions").
struct JobRequirements {
  int gpu_count = 1;
  double gpu_memory_gb = 8.0;
  double min_compute_capability = 7.0;
  int priority = 0;  // higher schedules first
  /// The job tolerates sharing one GPU with other tenants — either a
  /// spatial fractional slot or an nvshare-style time slice — instead of
  /// whole-device allocation.  Interactive sessions are shareable by
  /// default: they drive the GPU in bursts and waste most of a dedicated
  /// device.  Only meaningful for single-GPU jobs; whether a slot is
  /// actually used depends on the platform policy and the placement
  /// strategy.
  bool shareable = false;
  /// Hot working set that must be on-device (or swapped back in) for the
  /// job to make progress — the footprint a time-sliced tenant pays at
  /// quantum boundaries.  0 = assume gpu_memory_gb.
  double working_set_gb = 0;
  /// Fraction of wall-clock time the job actually drives the GPU.  Bursty
  /// jobs (low duty cycle) time-slice well; steady ones do not.  0 = derive
  /// from the job type (interactive -> kInteractiveDutyCycle, else 1.0).
  double duty_cycle = 0;

  bool operator==(const JobRequirements&) const = default;
};

/// Checkpointable-state profile of a training job (drives ALC costs).
struct StateProfile {
  std::uint64_t state_bytes = 2ULL << 30;  // model + optimizer state
  /// Fraction of state rewritten between consecutive checkpoints (drives
  /// incremental delta size).
  double dirty_fraction = 0.35;
  /// Local serialization throughput (bytes/s) when capturing a checkpoint;
  /// memory-intensive models pause longer (§4 Training Impact).
  double serialize_bytes_per_sec = 2.0e9;

  bool operator==(const StateProfile&) const = default;
};

struct JobSpec {
  std::string id;
  JobType type = JobType::kTraining;
  std::string owner_group;      // research group submitting the job
  std::string owner_node;       // non-empty: the group's home machine
  JobRequirements requirements;
  StateProfile state;
  /// Total work in seconds on the reference GPU (RTX 3090) for training and
  /// batch jobs; wall-clock session length for interactive jobs.
  double reference_duration = 3600.0;
  util::Duration checkpoint_interval = 600.0;
  std::string image_ref = "pytorch:2.3-cuda12.1";
  std::vector<std::string> preferred_storage;  // user-designated (§3.2)
  util::SimTime submitted_at = 0;

  bool operator==(const JobSpec&) const = default;
};

/// Checkpoint capture pause for a given state profile, seconds.
double checkpoint_pause_seconds(const StateProfile& state);

/// Resolved working set of a job (explicit field, else its VRAM footprint).
double resolved_working_set_gb(const JobSpec& spec);

/// VRAM the job claims per GPU when held as `mode`: its working set as a
/// time-sliced tenant (the rest swaps to host RAM), else gpu_memory_gb.
double footprint_gb(const JobSpec& spec, hw::Tenancy mode);

/// Resolved duty cycle of a job (explicit field, else type-derived).
double resolved_duty_cycle(const JobSpec& spec);

/// Throughput of `gpu_tflops` relative to the reference GPU.
double speed_factor(double gpu_tflops);

/// Reference-GPU FP32 throughput (RTX 3090).
constexpr double kReferenceTflops = 35.6;

/// Fraction of a GPU an interactive session actually drives over its
/// lifetime (bursty notebook usage; the rest idles).  Used by utilization
/// accounting: a whole GPU dedicated to one session delivers only this
/// much compute, which is precisely what fractional sharing recovers.
constexpr double kInteractiveDutyCycle = 0.35;

/// Effective compute share a job gets from a fractional slot.  Co-tenants
/// are bursty, so the slice delivers more than 1/(slots per GPU) but less
/// than the whole device.
constexpr double kSharedComputeShare = 0.5;

}  // namespace gpunion::workload
