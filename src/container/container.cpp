#include "container/container.h"

namespace gpunion::container {

std::string_view container_state_name(ContainerState s) {
  switch (s) {
    case ContainerState::kCreated: return "created";
    case ContainerState::kRunning: return "running";
    case ContainerState::kCheckpointing: return "checkpointing";
    case ContainerState::kExited: return "exited";
    case ContainerState::kKilled: return "killed";
  }
  return "unknown";
}

Container::Container(std::string id, ContainerConfig config, util::SimTime now)
    : id_(std::move(id)), config_(std::move(config)), created_at_(now) {
  record(now, "created");
}

void Container::record(util::SimTime at, std::string what) {
  events_.push_back(ContainerEvent{at, std::move(what)});
}

util::Status Container::start(util::SimTime now) {
  if (state_ != ContainerState::kCreated) {
    return util::failed_precondition_error(
        "start from state " + std::string(container_state_name(state_)));
  }
  state_ = ContainerState::kRunning;
  started_at_ = now;
  record(now, "started");
  return util::Status();
}

util::Status Container::begin_checkpoint(util::SimTime now) {
  if (state_ != ContainerState::kRunning) {
    return util::failed_precondition_error(
        "checkpoint from state " + std::string(container_state_name(state_)));
  }
  state_ = ContainerState::kCheckpointing;
  record(now, "checkpoint-begin");
  return util::Status();
}

util::Status Container::end_checkpoint(util::SimTime now) {
  if (state_ != ContainerState::kCheckpointing) {
    return util::failed_precondition_error(
        "end_checkpoint from state " +
        std::string(container_state_name(state_)));
  }
  state_ = ContainerState::kRunning;
  record(now, "checkpoint-end");
  return util::Status();
}

util::Status Container::exit(util::SimTime now) {
  if (!live()) {
    return util::failed_precondition_error(
        "exit from state " + std::string(container_state_name(state_)));
  }
  state_ = ContainerState::kExited;
  finished_at_ = now;
  record(now, "exited");
  return util::Status();
}

util::Status Container::kill(util::SimTime now) {
  if (!live()) {
    return util::failed_precondition_error(
        "kill on finished container " + id_);
  }
  state_ = ContainerState::kKilled;
  finished_at_ = now;
  record(now, "killed");
  return util::Status();
}

std::string Container::visible_devices() const {
  std::string out;
  for (std::size_t i = 0; i < config_.limits.gpu_indices.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(config_.limits.gpu_indices[i]);
  }
  return out;
}

}  // namespace gpunion::container
