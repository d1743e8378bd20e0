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
