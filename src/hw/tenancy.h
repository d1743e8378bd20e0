// GPU tenancy modes and per-mode seat counts.
//
// A GPU is a pool of tenancy units under a mode-specific capacity rule (the
// model nvshare and ParvaGPU share): a whole device is one unit; a device
// opened in a shared mode holds up to N seats of that mode and no other.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <string_view>

namespace gpunion::hw {

enum class Tenancy {
  kWhole,       // one workload owns whole devices exclusively
  kFractional,  // spatial slots: co-resident tenants, each under a VRAM cap
  kTimeslice,   // nvshare seats: full-memory tenants, one resident per
                // quantum, the rest swapped out to host RAM
};

/// The unit a tenant of `mode` holds: "gpu", "slot" or "seat".
std::string_view tenancy_unit(Tenancy mode);

/// The shared modes, in the order the coordinator re-subtracts in-flight
/// seats from a heartbeat (each may open a fully-free GPU).
inline constexpr std::array<Tenancy, 2> kSharedTenancies = {
    Tenancy::kFractional, Tenancy::kTimeslice};

/// One value per shared mode, indexed by the mode.  Whole GPUs are not a
/// seat pool and have no entry.
template <typename T>
class PerSharedMode {
 public:
  T& operator[](Tenancy mode) { return values_[slot(mode)]; }
  const T& operator[](Tenancy mode) const { return values_[slot(mode)]; }
  bool operator==(const PerSharedMode&) const = default;

 private:
  static std::size_t slot(Tenancy mode) {
    assert(mode != Tenancy::kWhole && "whole GPUs have no seat pool");
    return mode == Tenancy::kTimeslice ? 1 : 0;
  }

  std::array<T, kSharedTenancies.size()> values_{};
};

/// Seats per GPU, free seats, seats in flight: one count per shared mode.
using SeatCounts = PerSharedMode<int>;

}  // namespace gpunion::hw
