// Per-node container runtime.
//
// The runtime is the agent's execution backend: it verifies images against
// the registry, binds GPUs on the node model, enforces host resource
// budgets, tracks image cache state (pull cost is paid once per node) and
// owns the containers' lifecycles.  kill_all() implements the data path of
// the provider kill-switch.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "container/container.h"
#include "container/registry.h"
#include "hw/node.h"
#include "util/ids.h"
#include "util/status.h"

namespace gpunion::container {

/// Fixed container create+start cost (namespace/cgroup setup).  The image
/// pull, if uncached, is the caller's to model via the network.
inline constexpr util::Duration kStartupOverhead = 1.5;
/// GPU workload slowdown inside the container vs bare metal; the paper
/// claims near-native performance with passthrough (§3.3).
inline constexpr double kGpuOverheadFraction = 0.01;

class ContainerRuntime {
 public:
  ContainerRuntime(hw::NodeModel& node, const ImageRegistry& registry);

  /// Validates and creates a container:
  ///  - image digest + allow-list verification,
  ///  - seccomp: unconfined guests are rejected,
  ///  - GPU indices must be free on the node and fit the VRAM budget,
  ///  - host memory/cpu budgets must fit what remains on the node.
  /// On success the GPUs are bound and the container is in kCreated.
  util::StatusOr<std::string> create(const ContainerConfig& config,
                                     const std::string& workload_id,
                                     double gpu_utilization,
                                     util::SimTime now);

  util::Status start(const std::string& container_id, util::SimTime now);
  util::Status begin_checkpoint(const std::string& container_id,
                                util::SimTime now);
  util::Status end_checkpoint(const std::string& container_id,
                              util::SimTime now);

  /// Normal completion; releases GPUs.
  util::Status exit(const std::string& container_id, util::SimTime now);

  /// Forced termination; releases GPUs.  Used for individual workload kills.
  util::Status kill(const std::string& container_id, util::SimTime now);

  /// Kill-switch data path: terminates every live container immediately.
  /// Returns the ids of the containers that were killed.
  std::vector<std::string> kill_all(util::SimTime now);

  /// True when the node has already pulled this image (no image traffic
  /// needed on dispatch).
  bool image_cached(const std::string& reference) const;
  void mark_image_cached(const std::string& reference);

  const Container* find(const std::string& container_id) const;
  std::size_t live_count() const;

  hw::NodeModel& node() { return node_; }
  const hw::NodeModel& node() const { return node_; }

 private:
  util::StatusOr<Container*> live_container(const std::string& id);
  void release_resources(Container& c, util::SimTime now);

  hw::NodeModel& node_;
  const ImageRegistry& registry_;
  util::IdSequence ids_;
  std::unordered_map<std::string, std::unique_ptr<Container>> containers_;
  std::unordered_set<std::string> cached_images_;
  // host resources committed to live containers
  double committed_host_memory_gb_ = 0;
  double committed_cpu_cores_ = 0;
  // workload_id -> container_id for release bookkeeping
  std::unordered_map<std::string, std::string> workload_of_;
};

}  // namespace gpunion::container
