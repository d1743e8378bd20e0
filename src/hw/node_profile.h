// The hardware and owner profile a provider node advertises.
//
// One definition for the three places the profile lives: the agent's
// registration request carries it, the coordinator's directory entry
// (sched::NodeInfo) and the node's registry row (db::NodeRecord) are built
// on it.  A restarted coordinator rebuilds its directory from the registry
// alone, so a field added here survives a crash without further code.
#pragma once

#include <string>

#include "hw/tenancy.h"

namespace gpunion::hw {

struct NodeProfile {
  std::string machine_id;
  std::string hostname;
  std::string owner_group;
  int gpu_count = 0;
  std::string gpu_model;
  double gpu_memory_gb = 0;
  double compute_capability = 0;
  double gpu_tflops = 0;
  /// Seats one GPU opens into per shared mode (<= 1: the mode is off), and
  /// the per-tenant VRAM cap of a fractional slot.
  SeatCounts seats_per_gpu;
  double share_memory_cap_gb = 0;

  bool operator==(const NodeProfile&) const = default;
};

}  // namespace gpunion::hw
