#include "gpunion/federated_platform.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "util/logging.h"

namespace gpunion {

namespace {

/// Checked before anything is built, in every build type.
FederationConfig validated(FederationConfig config) {
  if (config.regions.empty()) {
    throw std::invalid_argument("federation requires at least one region");
  }
  std::set<std::string> names;
  for (const auto& region : config.regions) {
    if (region.name.empty()) {
      throw std::invalid_argument("federation region requires a name");
    }
    if (!names.insert(region.name).second) {
      throw std::invalid_argument("duplicate federation region name " +
                                  region.name);
    }
  }
  return config;
}

}  // namespace

FederatedPlatform::FederatedPlatform(sim::Environment& env,
                                     FederationConfig config)
    : env_(env),
      config_(validated(std::move(config))),
      wan_(std::make_unique<net::SimNetwork>(env, config_.wan)) {
  // One tracer for the whole federation: a forwarded job's spans from every
  // region land in one ring, so A -> B -> C reads as one trace.
  if (config_.tracer == nullptr) config_.tracer = &own_tracer_;
  // Asymmetric campus distances: applied before any gateway exists, so the
  // first digest already travels at the modeled latency.
  for (const auto& link : config_.links) {
    wan_->set_path_latency("gw-" + link.region_a, "gw-" + link.region_b,
                           link.one_way_latency);
  }
  // The ranking's view of the WAN: control RTT from the path latency,
  // shipping rate from the path bottleneck clamped to the federation
  // channel cap (checkpoints ride the capped class, not the raw links).
  federation::WanPathFn wan_path = [this](const std::string& from,
                                          const std::string& to) {
    federation::WanPathModel path;
    path.rtt = 2.0 * wan_->path_latency(from, to);
    path.gbps = wan_->path_gbps(from, to);
    if (config_.wan.federation_wan_gbps > 0) {
      path.gbps = std::min(path.gbps, config_.wan.federation_wan_gbps);
    }
    return path;
  };
  regions_.reserve(config_.regions.size());
  for (auto& region_config : config_.regions) {
    // Regions run on separate campus LANs, so the default coordinator id
    // cannot actually collide — but unique ids keep logs and DB rows
    // attributable when several regions share one process.
    if (region_config.campus.coordinator.id == "coordinator") {
      region_config.campus.coordinator.id =
          "coordinator-" + region_config.name;
    }
    Region region;
    region.name = region_config.name;
    if (region_config.campus.coordinator.tracer == nullptr) {
      region_config.campus.coordinator.tracer = config_.tracer;
    }
    region.platform =
        std::make_unique<Platform>(env_, region_config.campus);
    region.gateway = std::make_unique<federation::RegionGateway>(
        env_, region.platform->coordinator(),
        region.platform->checkpoint_store(), region.platform->database(),
        *wan_, region.name, region_config.policy, wan_path);
    by_name_[region.name] = regions_.size();
    names_.push_back(region.name);
    regions_.push_back(std::move(region));
  }
  // Seed the mesh membership: every gateway knows every founding region.
  // Regions that join later are discovered through gossip relays.
  for (auto& region : regions_) {
    for (const auto& peer : regions_) {
      if (peer.name == region.name) continue;
      region.gateway->add_peer(peer.name, peer.gateway->gateway_id());
    }
  }
  metrics_timer_ = std::make_unique<sim::PeriodicTimer>(
      env_, config_.metrics_interval, [this] { refresh_metrics(); });
}

FederatedPlatform::~FederatedPlatform() = default;

void FederatedPlatform::start() {
  assert(!started_ && "FederatedPlatform::start called twice");
  started_ = true;
  for (auto& region : regions_) {
    region.platform->start();
    region.gateway->start();
  }
  metrics_timer_->start();
}

Platform& FederatedPlatform::region(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("unknown region " + name);
  }
  return *regions_[it->second].platform;
}

federation::RegionGateway& FederatedPlatform::gateway(
    const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("unknown region " + name);
  }
  return *regions_[it->second].gateway;
}

int FederatedPlatform::total_gpus() const {
  int total = 0;
  for (const auto& region : regions_) total += region.platform->total_gpus();
  return total;
}

FederatedStats FederatedPlatform::stats() const {
  FederatedStats out;
  util::SampleSet replica_ages;
  for (const auto& region : regions_) {
    const federation::GatewayStats& gw = region.gateway->stats();
    out.forwards_attempted += gw.forwards_attempted;
    out.forwards_admitted += gw.forwards_admitted;
    out.forwards_refused += gw.forwards_refused;
    out.forwards_returned += gw.forwards_returned;
    out.reroutes += gw.reroutes;
    out.remote_admitted += gw.remote_admitted;
    out.remote_refused += gw.remote_refused_policy + gw.remote_refused_cap +
                          gw.remote_refused_capacity +
                          gw.remote_refused_duplicate;
    out.cross_campus_migrations += gw.cross_campus_migrations_in;
    out.checkpoints_shipped += gw.checkpoints_shipped;
    out.checkpoint_bytes_shipped += gw.checkpoint_bytes_shipped;
    out.remote_completions += gw.remote_completions;
    out.digests_published += gw.digests_published;
    out.local_rankings += gw.local_rankings;
    out.gossips_sent += gw.gossips_sent;
    out.gossips_received += gw.gossips_received;
    out.chain_loops_avoided += gw.chain_loops_avoided;
    out.interactive_rtt_filtered += gw.interactive_rtt_filtered;
    for (double age : gw.directory_age_at_rank.samples()) {
      replica_ages.add(age);
    }
  }
  out.digest_age_mean = replica_ages.mean();
  out.digest_age_max = replica_ages.max();
  return out;
}

void FederatedPlatform::inject_region_outage(const std::string& region_name,
                                             util::Duration downtime) {
  Platform& platform = region(region_name);
  GPUNION_ILOG("federation") << "full-campus outage in " << region_name
                             << " for " << downtime << " s";
  for (const auto& machine_id : platform.machine_ids()) {
    workload::Interruption event;
    event.at = env_.now();
    event.machine_id = machine_id;
    event.kind = agent::DepartureKind::kEmergency;
    event.downtime = downtime;
    platform.inject_interruption(event);
  }
}

void FederatedPlatform::set_region_wan_partitioned(
    const std::string& region_name, bool partitioned) {
  wan_->set_partitioned(gateway(region_name).gateway_id(), partitioned);
}

void FederatedPlatform::crash_region_control_plane(
    const std::string& region_name, util::Duration downtime) {
  register_region_crash_points(region_name, downtime);  // idempotent hooks
  Platform& platform = region(region_name);
  if (platform.control_plane_crashed()) return;
  GPUNION_ILOG("federation") << "control-plane crash in " << region_name
                             << " for " << downtime << " s";
  platform.crash_control_plane(downtime);
}

void FederatedPlatform::register_region_crash_points(
    const std::string& region_name, util::Duration downtime) {
  Platform& platform = region(region_name);
  federation::RegionGateway* gw = &gateway(region_name);
  // Gateway and coordinator live in one campus process group: every
  // control-plane crash takes both down, every restart brings both back
  // (gateway last — it repatriates via the recovered coordinator).
  platform.set_crash_hooks([gw] { gw->crash(); }, [gw] { gw->recover(); });
  platform.register_crash_points(downtime);
  platform.fault_injector().register_fault(
      std::string(sim::kCrashMidForward), [&platform, downtime] {
        // Same outage; the NAME carries the intent — harnesses fire it
        // while this region has a hand-off in flight, exercising the
        // durable forward rows and the receiver's dedup table.
        platform.crash_control_plane(downtime);
      });
}

void FederatedPlatform::refresh_metrics() {
  // Federation-wide span histograms (the shared tracer holds every
  // region's spans, so this is the one registry with the whole picture).
  config_.tracer->publish_metrics(metrics_);

  // Per-region request-plane rollup: each campus fronts its own ApiServer
  // (remote-admitted forwards bypass it — the home region already charged
  // the tenant), so the federation view is one gauge row per region.
  auto& api_family = metrics_.gauge_family(
      "gpunion_federation_api_requests",
      "Per-region request-plane counters by outcome");
  for (const auto& region : regions_) {
    if (!region.platform->has_api()) continue;
    const api::TenantCounters& t = region.platform->api().stats().totals;
    auto set = [&](const char* outcome, std::uint64_t v) {
      api_family
          .gauge({{"region", region.name}, {"outcome", outcome}})
          .set(static_cast<double>(v));
    };
    set("accepted", t.accepted);
    set("dispatched", t.dispatched);
    set("rejected_overloaded", t.rejected_overloaded);
    set("rejected_quota", t.rejected_quota + t.quota_dropped);
    set("departed", t.departed);
  }
  auto& forwarded = metrics_.gauge_family(
      "gpunion_federation_forwards_admitted_total",
      "Jobs this region pushed to another campus (accepted offers)");
  auto& admitted = metrics_.gauge_family(
      "gpunion_federation_remote_admitted_total",
      "Forwarded jobs this region accepted from other campuses");
  auto& active = metrics_.gauge_family(
      "gpunion_federation_remote_active",
      "Forwarded jobs currently reserved or running in this region");
  auto& migrations = metrics_.gauge_family(
      "gpunion_federation_cross_campus_migrations_total",
      "Admitted forwards that resumed from a shipped checkpoint");
  auto& staleness = metrics_.gauge_family(
      "gpunion_federation_digest_age_seconds",
      "Age of the freshest peer replica entry for each region's digest");
  for (const auto& region : regions_) {
    const monitor::Labels labels{{"region", region.name}};
    const federation::GatewayStats& gw = region.gateway->stats();
    forwarded.gauge(labels).set(
        static_cast<double>(gw.forwards_admitted));
    admitted.gauge(labels).set(static_cast<double>(gw.remote_admitted));
    active.gauge(labels).set(
        static_cast<double>(region.gateway->remote_jobs_active()));
    migrations.gauge(labels).set(
        static_cast<double>(gw.cross_campus_migrations_in));
    // The freshest view any OTHER replica holds of this region.
    double best_age = -1;
    for (const auto& peer : regions_) {
      if (peer.name == region.name) continue;
      const federation::DirectoryEntry* entry =
          peer.gateway->directory().entry(region.name);
      if (entry == nullptr) continue;
      const double age = env_.now() - entry->generated_at;
      if (best_age < 0 || age < best_age) best_age = age;
    }
    if (best_age >= 0) staleness.gauge(labels).set(best_age);
  }
}

}  // namespace gpunion
