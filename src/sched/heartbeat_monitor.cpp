#include "sched/heartbeat_monitor.h"

#include "util/logging.h"

namespace gpunion::sched {

HeartbeatMonitor::HeartbeatMonitor(sim::Environment& env, Directory& directory,
                                   util::Duration heartbeat_interval,
                                   int miss_threshold, OnNodeLost on_node_lost)
    : env_(env),
      directory_(directory),
      heartbeat_interval_(heartbeat_interval),
      miss_threshold_(miss_threshold),
      on_node_lost_(std::move(on_node_lost)),
      timer_(env, heartbeat_interval, [this] { sweep(); }) {}

void HeartbeatMonitor::observe(const std::string& machine_id,
                               util::SimTime at) {
  auto it = last_seen_.find(machine_id);
  if (it != last_seen_.end()) {
    if (at <= it->second) return;  // stale observation; newest wins
    by_expiry_.erase({it->second, machine_id});
    it->second = at;
  } else {
    last_seen_.emplace(machine_id, at);
  }
  by_expiry_.insert({at, machine_id});
}

void HeartbeatMonitor::forget(const std::string& machine_id) {
  auto it = last_seen_.find(machine_id);
  if (it == last_seen_.end()) return;
  by_expiry_.erase({it->second, machine_id});
  last_seen_.erase(it);
}

std::vector<std::string> HeartbeatMonitor::sweep() {
  std::vector<std::string> lost;
  const util::SimTime now = env_.now();
  ++sweeps_;
  last_sweep_examined_ = 0;
  while (!by_expiry_.empty()) {
    const auto& [last_beat, machine_id] = *by_expiry_.begin();
    if (now - last_beat <= detection_deadline()) break;  // rest are fresher
    ++last_sweep_examined_;
    ++total_examined_;
    const std::string id = machine_id;  // keep past the erase
    last_seen_.erase(id);
    by_expiry_.erase(by_expiry_.begin());
    const NodeInfo* node =
        static_cast<const Directory&>(directory_).find(id);
    if (node == nullptr || node->status != db::NodeStatus::kActive) {
      continue;  // loss already handled (departure notice etc.)
    }
    lost.push_back(id);
  }
  for (const auto& machine_id : lost) {
    GPUNION_ILOG("hb-monitor")
        << machine_id << " missed " << miss_threshold_
        << " heartbeats; marking unavailable";
    if (on_node_lost_) on_node_lost_(machine_id);
  }
  return lost;
}

}  // namespace gpunion::sched
