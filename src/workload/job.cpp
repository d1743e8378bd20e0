#include "workload/job.h"

#include <cassert>

namespace gpunion::workload {

std::string_view job_type_name(JobType t) {
  switch (t) {
    case JobType::kTraining: return "training";
    case JobType::kInteractive: return "interactive";
    case JobType::kBatch: return "batch";
  }
  return "unknown";
}

std::string_view job_phase_name(JobPhase p) {
  switch (p) {
    case JobPhase::kPending: return "pending";
    case JobPhase::kDispatching: return "dispatching";
    case JobPhase::kRunning: return "running";
    case JobPhase::kCompleted: return "completed";
    case JobPhase::kDenied: return "denied";
    case JobPhase::kSessionDisrupted: return "session_disrupted";
    case JobPhase::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool job_phase_terminal(JobPhase p) {
  switch (p) {
    case JobPhase::kCompleted:
    case JobPhase::kDenied:
    case JobPhase::kSessionDisrupted:
    case JobPhase::kCancelled:
      return true;
    default:
      return false;
  }
}

std::string_view departure_kind_name(DepartureKind k) {
  switch (k) {
    case DepartureKind::kScheduled: return "scheduled";
    case DepartureKind::kEmergency: return "emergency";
    case DepartureKind::kTemporary: return "temporary";
    case DepartureKind::kReclaim: return "reclaim";
  }
  return "unknown";
}

double checkpoint_pause_seconds(const StateProfile& state) {
  assert(state.serialize_bytes_per_sec > 0);
  return static_cast<double>(state.state_bytes) /
         state.serialize_bytes_per_sec;
}

double speed_factor(double gpu_tflops) {
  assert(gpu_tflops > 0);
  return gpu_tflops / kReferenceTflops;
}

double resolved_working_set_gb(const JobSpec& spec) {
  return spec.requirements.working_set_gb > 0 ? spec.requirements.working_set_gb
                                              : spec.requirements.gpu_memory_gb;
}

double footprint_gb(const JobSpec& spec, hw::Tenancy mode) {
  return mode == hw::Tenancy::kTimeslice ? resolved_working_set_gb(spec)
                                         : spec.requirements.gpu_memory_gb;
}

double resolved_duty_cycle(const JobSpec& spec) {
  if (spec.requirements.duty_cycle > 0) return spec.requirements.duty_cycle;
  return spec.type == JobType::kInteractive ? kInteractiveDutyCycle : 1.0;
}

}  // namespace gpunion::workload
