// Capacity-accounting check shared by the invariant harnesses: the
// directory's running capacity counters must equal a rescan of its nodes,
// for whole GPUs and for every seat mode.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "hw/tenancy.h"
#include "sched/directory.h"

namespace gpunion::sched {

/// Compares Directory::capacity_summary() with a rescan of the directory:
/// free whole GPUs and free seats per shared mode on schedulable nodes, and
/// the schedulable count; every node's counts must be in range.  `where`
/// labels failures.
inline void expect_capacity_matches_rescan(Directory& directory,
                                           const std::string& where) {
  const CapacitySummary summary = directory.capacity_summary();
  int free_gpus = 0;
  hw::SeatCounts free_seats;
  int schedulable = 0;
  for (const NodeInfo* node : directory.all()) {
    EXPECT_GE(node->free_gpus, 0) << where << " " << node->machine_id;
    EXPECT_LE(node->free_gpus, node->gpu_count)
        << where << " " << node->machine_id;
    for (const hw::Tenancy mode : hw::kSharedTenancies) {
      EXPECT_GE(node->free_seats[mode], 0)
          << where << " " << node->machine_id << " "
          << hw::tenancy_unit(mode);
    }
    if (!node->schedulable()) continue;
    free_gpus += node->free_gpus;
    for (const hw::Tenancy mode : hw::kSharedTenancies) {
      free_seats[mode] += node->free_seats[mode];
    }
    ++schedulable;
  }
  EXPECT_EQ(summary.free_gpus, free_gpus)
      << where << ": running free-GPU counter drifted from a directory rescan";
  for (const hw::Tenancy mode : hw::kSharedTenancies) {
    EXPECT_EQ(summary.free_seats[mode], free_seats[mode])
        << where << ": running free-" << hw::tenancy_unit(mode)
        << " counter drifted from a directory rescan";
  }
  EXPECT_EQ(summary.schedulable_nodes, schedulable) << where;
}

}  // namespace gpunion::sched
