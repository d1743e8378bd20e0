#include "container/runtime.h"

#include "util/logging.h"

namespace gpunion::container {

ContainerRuntime::ContainerRuntime(hw::NodeModel& node,
                                   const ImageRegistry& registry)
    : node_(node), registry_(registry), ids_("ctr-" + node.hostname()) {}

util::StatusOr<std::string> ContainerRuntime::create(
    const ContainerConfig& config, const std::string& workload_id,
    double gpu_utilization, util::SimTime now) {
  GPUNION_RETURN_IF_ERROR(registry_.verify_for_deployment(config.image));
  if (config.seccomp == SeccompProfile::kUnconfined) {
    return util::permission_denied_error(
        "unconfined seccomp profile is not permitted for guest workloads");
  }
  if (config.limits.gpu_indices.empty()) {
    return util::invalid_argument_error("workload requests no GPUs");
  }
  if (config.limits.host_memory_gb + committed_host_memory_gb_ >
      node_.spec().ram_gb) {
    return util::resource_exhausted_error("host memory budget exhausted on " +
                                          node_.hostname());
  }
  if (config.limits.cpu_cores + committed_cpu_cores_ >
      static_cast<double>(node_.spec().cpu_cores)) {
    return util::resource_exhausted_error("cpu budget exhausted on " +
                                          node_.hostname());
  }

  GPUNION_RETURN_IF_ERROR(node_.allocate(
      config.limits.tenancy, config.limits.gpu_indices, workload_id,
      config.limits.gpu_memory_gb, gpu_utilization, now));

  committed_host_memory_gb_ += config.limits.host_memory_gb;
  committed_cpu_cores_ += config.limits.cpu_cores;

  std::string id = ids_.next();
  auto container = std::make_unique<Container>(id, config, now);
  workload_of_[id] = workload_id;
  containers_.emplace(id, std::move(container));
  GPUNION_DLOG("runtime") << node_.hostname() << " created " << id << " for "
                          << workload_id;
  return id;
}

util::StatusOr<Container*> ContainerRuntime::live_container(
    const std::string& id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) {
    return util::not_found_error("container " + id + " not found");
  }
  return it->second.get();
}

void ContainerRuntime::release_resources(Container& c, util::SimTime now) {
  auto it = workload_of_.find(c.id());
  if (it != workload_of_.end()) {
    node_.release(it->second, now);
    workload_of_.erase(it);
  }
  committed_host_memory_gb_ -= c.config().limits.host_memory_gb;
  committed_cpu_cores_ -= c.config().limits.cpu_cores;
}

util::Status ContainerRuntime::start(const std::string& container_id,
                                     util::SimTime now) {
  auto c = live_container(container_id);
  if (!c.ok()) return c.status();
  return (*c)->start(now);
}

util::Status ContainerRuntime::begin_checkpoint(
    const std::string& container_id, util::SimTime now) {
  auto c = live_container(container_id);
  if (!c.ok()) return c.status();
  return (*c)->begin_checkpoint(now);
}

util::Status ContainerRuntime::end_checkpoint(const std::string& container_id,
                                              util::SimTime now) {
  auto c = live_container(container_id);
  if (!c.ok()) return c.status();
  return (*c)->end_checkpoint(now);
}

util::Status ContainerRuntime::exit(const std::string& container_id,
                                    util::SimTime now) {
  auto c = live_container(container_id);
  if (!c.ok()) return c.status();
  GPUNION_RETURN_IF_ERROR((*c)->exit(now));
  release_resources(**c, now);
  return util::Status();
}

util::Status ContainerRuntime::kill(const std::string& container_id,
                                    util::SimTime now) {
  auto c = live_container(container_id);
  if (!c.ok()) return c.status();
  GPUNION_RETURN_IF_ERROR((*c)->kill(now));
  release_resources(**c, now);
  return util::Status();
}

std::vector<std::string> ContainerRuntime::kill_all(util::SimTime now) {
  std::vector<std::string> killed;
  for (auto& [id, container] : containers_) {
    if (container->live()) {
      // kill() on a live container cannot fail: the kill-switch is
      // unconditional by design.
      (void)container->kill(now);
      release_resources(*container, now);
      killed.push_back(id);
    }
  }
  return killed;
}

bool ContainerRuntime::image_cached(const std::string& reference) const {
  return cached_images_.contains(reference);
}

void ContainerRuntime::mark_image_cached(const std::string& reference) {
  cached_images_.insert(reference);
}

const Container* ContainerRuntime::find(const std::string& container_id) const {
  auto it = containers_.find(container_id);
  return it == containers_.end() ? nullptr : it->second.get();
}

std::size_t ContainerRuntime::live_count() const {
  std::size_t n = 0;
  for (const auto& [id, container] : containers_) {
    if (container->live()) ++n;
  }
  return n;
}

}  // namespace gpunion::container
