// Replicated region directory: each gateway's own copy of the federation.
//
// There is no global directory: every RegionGateway holds a replica, kept
// convergent by peer-to-peer push gossip.  Every digest interval a gateway
// stamps its own entry from the local Directory::capacity_summary() and
// pushes its whole directory to a rotating subset of peers.  Receivers
// merge per entry by version dominance, so placement queries are answered
// from the local replica with no round-trip, and any region can die
// without blinding the others.
//
// Versioning: each entry carries the ORIGIN's (generated_at, version)
// stamp.  generated_at is the dominance key — a restarted gateway resets
// its version counter but stamps fresh times, so it re-enters rankings
// immediately; version breaks exact-time ties.  The WAN-cost ranking
// measures staleness against the origin's generated_at stamp (all campuses
// share the simulation clock); received_at is purely local bookkeeping —
// when this replica last learned something new about the region — kept
// for debugging gossip propagation.  The per-replica version vector
// (region -> version) is exposed for convergence checks: once gossip
// quiesces, every replica's vector is identical.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sched/directory.h"
#include "util/time.h"

namespace gpunion::federation {

/// One region as a replica sees it.  Also the wire format relayed inside
/// DirectoryGossip messages (re-gossiped entries keep the ORIGIN's stamps,
/// never the relay's, so dominance is decided against the origin clock).
struct DirectoryEntry {
  std::string region;
  std::string gateway_id;
  sched::CapacitySummary capacity;
  std::uint64_t version = 0;       // origin's digest sequence number
  util::SimTime generated_at = 0;  // origin's stamp at digest time
  util::SimTime received_at = 0;   // local: newest version landed here
};

struct RegionDirectoryStats {
  std::uint64_t self_updates = 0;
  std::uint64_t merges_applied = 0;  // strictly newer entries accepted
  std::uint64_t merges_ignored = 0;  // replays / reorderings dropped
};

class RegionDirectory {
 public:
  explicit RegionDirectory(std::string self_region)
      : self_region_(std::move(self_region)) {}

  /// Re-stamps this replica's own entry (the one truth gossip can never
  /// override: merge() refuses entries for self_region).
  void update_self(const std::string& gateway_id,
                   sched::CapacitySummary capacity, std::uint64_t version,
                   util::SimTime now);

  /// Merges one gossiped entry; true when it was strictly newer than the
  /// entry on file (dominance: generated_at first, version tie-break).
  bool merge(const DirectoryEntry& incoming, util::SimTime now);

  /// Drops every entry (a crashed gateway's replica restarts empty; the
  /// next update_self stamp and an anti-entropy pull repopulate it).  The
  /// merge stats survive — they describe the replica's lifetime, not its
  /// current contents.
  void clear() { entries_.clear(); }

  const DirectoryEntry* entry(const std::string& region) const;
  /// Ordered by region name: deterministic gossip payloads and rankings.
  const std::map<std::string, DirectoryEntry>& entries() const {
    return entries_;
  }
  /// region -> version, for convergence assertions: replicas that have
  /// quiesced under gossip hold identical vectors.
  std::map<std::string, std::uint64_t> version_vector() const;

  const std::string& self_region() const { return self_region_; }
  const RegionDirectoryStats& stats() const { return stats_; }

 private:
  std::string self_region_;
  std::map<std::string, DirectoryEntry> entries_;
  RegionDirectoryStats stats_;
};

}  // namespace gpunion::federation
