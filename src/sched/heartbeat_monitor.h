// Heartbeat-based failure detection.
//
// §3.5: "nodes that miss three consecutive heartbeats are marked as
// unavailable, triggering automatic workload migration."  A node whose last
// beat is older than miss_threshold x interval is reported lost.  Detection
// latency is therefore in (miss x interval, (miss+1) x interval) — the
// dominant term in emergency-departure downtime (Fig. 3).
//
// The monitor keeps tracked nodes in an expiry-ordered set keyed by
// (last_heartbeat, machine_id).  A sweep pops entries from the front only
// while they are actually past the deadline, so its cost is
// O(expired log n) instead of O(fleet) — the §5.2 "heartbeat monitoring
// beyond 200 nodes" bottleneck.  The coordinator feeds the ordering through
// observe() on every authenticated beat and prunes departures with forget().
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/directory.h"
#include "sim/environment.h"

namespace gpunion::sched {

class HeartbeatMonitor {
 public:
  using OnNodeLost = std::function<void(const std::string& machine_id)>;

  HeartbeatMonitor(sim::Environment& env, Directory& directory,
                   util::Duration heartbeat_interval, int miss_threshold,
                   OnNodeLost on_node_lost);

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  /// Records a heartbeat (or registration) from `machine_id` at time `at`.
  /// Re-files the node in the expiry order; beats arriving out of node
  /// order are handled — only the newest observation counts.
  void observe(const std::string& machine_id, util::SimTime at);

  /// Stops tracking a node (announced departure / already handled loss).
  void forget(const std::string& machine_id);

  /// Drops all tracked nodes (coordinator crash).  Recovery re-observes
  /// the fleet, giving every node a fresh detection window — a node that
  /// died during the outage is detected one deadline after recovery.
  void clear() {
    by_expiry_.clear();
    last_seen_.clear();
  }

  /// One sweep (also called by the timer).  Pops only entries past the
  /// detection deadline; nodes no longer kActive in the directory are
  /// dropped silently (their loss was already handled through another
  /// path).  Returns nodes newly lost.
  std::vector<std::string> sweep();

  util::Duration detection_deadline() const {
    return heartbeat_interval_ * miss_threshold_;
  }

  /// Nodes currently in the expiry order.
  std::size_t tracked() const { return by_expiry_.size(); }
  /// Entries popped by the most recent sweep (its actual work).
  std::size_t last_sweep_examined() const { return last_sweep_examined_; }
  /// Cumulative entries popped across all sweeps (bench observability:
  /// total sweep work is O(expirations), not O(sweeps x fleet)).
  std::uint64_t total_examined() const { return total_examined_; }
  std::uint64_t sweeps() const { return sweeps_; }

 private:
  sim::Environment& env_;
  Directory& directory_;
  util::Duration heartbeat_interval_;
  int miss_threshold_;
  OnNodeLost on_node_lost_;
  sim::PeriodicTimer timer_;

  // Expiry order: earliest last-heartbeat first; id tiebreak keeps
  // simultaneous observations deterministic.
  std::set<std::pair<util::SimTime, std::string>> by_expiry_;
  std::unordered_map<std::string, util::SimTime> last_seen_;
  std::size_t last_sweep_examined_ = 0;
  std::uint64_t total_examined_ = 0;
  std::uint64_t sweeps_ = 0;
};

}  // namespace gpunion::sched
