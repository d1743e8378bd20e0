// Multi-campus federation harness.
//
// Instantiates N autonomous regional Platforms (each with its own campus
// LAN, coordinator, database and checkpoint store) on ONE simulation
// environment, plus the federation tier that joins them: an inter-campus
// WAN SimNetwork (federation traffic rides its own capped channel) and one
// RegionGateway per campus.  The gateways replicate the region directory
// among themselves via peer-to-peer gossip and rank forwarding targets
// locally (WAN-cost-aware); there is no central broker whose death could
// blind the federation.
//
// The scalability story this enables: each region's coordinator fans in
// only its own heartbeats, while inter-region traffic is O(regions)
// digests per gossip interval, spread across the mesh of gateways.  And
// the scenario family it opens: a full-campus outage whose displaced jobs
// the rest of the federation absorbs via cross-campus checkpoint migration
// (re-forwarded onward, provenance chains intact, if the absorber degrades
// in turn), asymmetric region sizes and WAN distances,
// WAN-bandwidth-constrained migration, WAN partitions.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "federation/gateway.h"
#include "gpunion/platform.h"
#include "monitor/metrics.h"

namespace gpunion {

/// One campus in the federation.
struct RegionConfig {
  std::string name;
  CampusConfig campus;
  federation::RegionPolicy policy;
};

/// Modeled one-way propagation latency between two regions' gateways
/// (symmetric).  Pairs without an entry use the WAN's base latency.
struct InterRegionLink {
  std::string region_a;
  std::string region_b;
  util::Duration one_way_latency = 0.010;
};

struct FederationConfig {
  std::vector<RegionConfig> regions;
  /// Inter-campus WAN model; `federation_wan_gbps` caps the shared channel
  /// all federation traffic (gossip, forwards, checkpoints) rides.
  net::SimNetworkConfig wan;
  /// Asymmetric campus distances (feeds the ranking's RTT terms and the
  /// interactive latency budget).
  std::vector<InterRegionLink> links;
  /// Cadence of the federated metrics refresh.
  util::Duration metrics_interval = 60.0;
  /// Shared causal tracer injected into every region's control plane, so a
  /// forwarded job's spans — origin, WAN transfer, remote execution — land
  /// in ONE ring as one trace.  Left null, the FederatedPlatform owns one.
  obs::Tracer* tracer = nullptr;
};

/// Federation-wide aggregate of the per-gateway counters.
struct FederatedStats {
  std::uint64_t forwards_attempted = 0;
  std::uint64_t forwards_admitted = 0;
  std::uint64_t forwards_refused = 0;
  std::uint64_t forwards_returned = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t remote_admitted = 0;
  std::uint64_t remote_refused = 0;  // policy + cap + capacity
  std::uint64_t cross_campus_migrations = 0;
  std::uint64_t checkpoints_shipped = 0;
  std::uint64_t checkpoint_bytes_shipped = 0;
  std::uint64_t remote_completions = 0;
  std::uint64_t digests_published = 0;
  /// Placement queries, each answered from the asking gateway's replica.
  std::uint64_t local_rankings = 0;
  /// Gossip volume (directory pushes between gateways).
  std::uint64_t gossips_sent = 0;
  std::uint64_t gossips_received = 0;
  /// Ranking filters (loop avoidance, interactive RTT budget).
  std::uint64_t chain_loops_avoided = 0;
  std::uint64_t interactive_rtt_filtered = 0;
  /// Replica staleness actually ranked on (seconds).
  double digest_age_mean = 0;
  double digest_age_max = 0;
};

class FederatedPlatform {
 public:
  /// Throws std::invalid_argument when `config` has no regions, or a region
  /// whose name is empty or repeats another's (a name keys region(),
  /// gateway() and the gateway's WAN endpoint).
  FederatedPlatform(sim::Environment& env, FederationConfig config);
  ~FederatedPlatform();

  FederatedPlatform(const FederatedPlatform&) = delete;
  FederatedPlatform& operator=(const FederatedPlatform&) = delete;

  /// Starts every regional platform and its gateway (first digests flow
  /// immediately).
  void start();

  std::size_t region_count() const { return regions_.size(); }
  const std::vector<std::string>& region_names() const { return names_; }
  Platform& region(const std::string& name);
  Platform& region(std::size_t index) { return *regions_.at(index).platform; }
  federation::RegionGateway& gateway(const std::string& name);
  net::SimNetwork& wan() { return *wan_; }
  monitor::MetricRegistry& metrics() { return metrics_; }
  /// The federation-wide tracer every region records into.
  obs::Tracer& tracer() { return *config_.tracer; }
  const obs::Tracer& tracer() const { return *config_.tracer; }
  sim::Environment& env() { return env_; }

  /// Aggregated federation counters.
  FederatedStats stats() const;

  /// Full-campus outage: every provider node in `region` departs
  /// immediately (emergency) and rejoins after `downtime`.  The federation
  /// absorbs the displaced load via cross-campus forwarding.
  void inject_region_outage(const std::string& region_name,
                            util::Duration downtime);

  /// WAN partition of one region's gateway: federation messages to/from it
  /// are silently dropped until healed.  The campus itself keeps running —
  /// only its federation membership goes dark (replicas elsewhere age out
  /// past the directory TTL and stop ranking it).
  void set_region_wan_partitioned(const std::string& region_name,
                                  bool partitioned);

  /// Crashes one region's whole control plane — gateway AND coordinator go
  /// down together (they are one campus process group), the database
  /// recovers from its WAL after `downtime`, the coordinator rebuilds, and
  /// the gateway resumes in-flight hand-offs, repatriates unanswered
  /// offers and anti-entropy-pulls the directory from a live peer.
  void crash_region_control_plane(const std::string& region_name,
                                  util::Duration downtime);

  /// Installs the full crash-point taxonomy (including kCrashMidForward,
  /// which takes the gateway down with the coordinator — harnesses fire it
  /// while a forward is in flight) on one region's fault injector, and
  /// couples the gateway's crash/restart to every campus crash point.
  void register_region_crash_points(const std::string& region_name,
                                    util::Duration downtime);

 private:
  void refresh_metrics();

  sim::Environment& env_;
  FederationConfig config_;
  /// Default federation-wide tracer; config_.tracer points here unless the
  /// caller injected one.
  obs::Tracer own_tracer_;
  std::unique_ptr<net::SimNetwork> wan_;
  struct Region {
    std::string name;
    std::unique_ptr<Platform> platform;
    std::unique_ptr<federation::RegionGateway> gateway;
  };
  std::vector<Region> regions_;
  std::map<std::string, std::size_t> by_name_;
  std::vector<std::string> names_;
  monitor::MetricRegistry metrics_;
  std::unique_ptr<sim::PeriodicTimer> metrics_timer_;
  bool started_ = false;
};

}  // namespace gpunion
