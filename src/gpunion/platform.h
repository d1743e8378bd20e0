// GPUnion platform facade.
//
// Owns and wires every subsystem: the campus network model, system database,
// image registry, checkpoint store (with storage endpoints on the network),
// the coordinator, one provider agent per campus node, Prometheus-style
// metrics and the scraper.  This is the top-level object examples and
// benches instantiate; experiments inject provider churn through
// inject_interruption() and read results from the coordinator, the
// migration tracker and the allocation ledger.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/provider_agent.h"
#include "api/api_server.h"
#include "container/registry.h"
#include "db/sharded_database.h"
#include "gpunion/config.h"
#include "monitor/metrics.h"
#include "monitor/scraper.h"
#include "net/sim_network.h"
#include "obs/trace.h"
#include "sched/coordinator.h"
#include "sim/environment.h"
#include "sim/fault_injector.h"
#include "storage/checkpoint_store.h"
#include "workload/provider_behavior.h"

namespace gpunion {

class Platform {
 public:
  /// Throws std::invalid_argument when two nodes share a hostname or two
  /// storage nodes share an id.
  Platform(sim::Environment& env, CampusConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Brings the platform up: coordinator online, storage + image-registry
  /// endpoints attached, every provider agent joined.
  void start();

  // --- Component access ------------------------------------------------------
  sched::Coordinator& coordinator() { return *coordinator_; }
  const sched::Coordinator& coordinator() const { return *coordinator_; }
  /// The tenant-facing request plane (CampusConfig::api.enabled); campuses
  /// without one expose no front door and callers use coordinator().
  bool has_api() const { return api_ != nullptr; }
  api::ApiServer& api() { return *api_; }
  const api::ApiServer& api() const { return *api_; }
  net::SimNetwork& network() { return *network_; }
  /// The campus system database: sharded writers + write-behind ledger,
  /// configured by CampusConfig::db.
  db::ShardedDatabase& database() { return database_; }
  const db::ShardedDatabase& database() const { return database_; }
  storage::CheckpointStore& checkpoint_store() { return store_; }
  container::ImageRegistry& image_registry() { return registry_; }
  monitor::MetricRegistry& metrics() { return metrics_; }
  /// The causal tracer the whole campus control plane records into.  Owned
  /// here unless CampusConfig::coordinator.tracer injected a shared one
  /// (the federation tier does, so one trace spans regions).
  obs::Tracer& tracer() { return *config_.coordinator.tracer; }
  const obs::Tracer& tracer() const { return *config_.coordinator.tracer; }
  sim::Environment& env() { return env_; }
  const CampusConfig& config() const { return config_; }
  /// Control-plane actor lane (coordinator + database + scraper share it —
  /// they touch the same tables, so they are one actor).
  sim::LaneId lane() const { return lane_; }

  /// Agent by machine id; nullptr when unknown.
  agent::ProviderAgent* agent(const std::string& machine_id);
  /// Agent by hostname; nullptr when unknown.
  agent::ProviderAgent* agent_by_hostname(const std::string& hostname);
  std::vector<std::string> machine_ids() const;

  /// Machine id an agent on `hostname` will self-assign.
  static std::string machine_id_for(const std::string& hostname);

  // --- Experiment helpers -----------------------------------------------------
  /// Applies one provider-churn event: the provider departs per the event's
  /// kind and automatically rejoins after event.downtime.  Touches the
  /// coordinator AND the provider actor, so in kParallel it must run
  /// exclusively — call it from the main thread between runs, or go through
  /// schedule_interruption().
  void inject_interruption(const workload::Interruption& event);

  /// Schedules inject_interruption(event) at absolute time `t` as an
  /// exclusive event (every worker quiesced; an ordinary event in
  /// kDeterministic).  The mode-safe way for experiments to inject churn.
  void schedule_interruption(util::SimTime t,
                             const workload::Interruption& event);

  // --- Crash / restart --------------------------------------------------------
  /// Named crash-point registry for this campus.  Harnesses schedule faults
  /// by name (sim::kCrashPreAck etc.); register_crash_points installs the
  /// concrete actions.
  sim::FaultInjector& fault_injector() { return *faults_; }

  /// Crashes the campus control plane in place: the coordinator stops
  /// acking (messages drop), the background flush timer stops, and after
  /// `downtime` the database recovers from its WAL and the coordinator
  /// rebuilds live jobs, indexes and in-flight dispatches from the durable
  /// tables.  Nodes, agents and running work are untouched — this is the
  /// coordinator-process outage the paper's centralized design fears.
  /// No-op while already crashed.  Like inject_interruption, call it from
  /// the main thread between runs or via an exclusive event.
  void crash_control_plane(util::Duration downtime);

  /// Couples extra components to the control-plane outage (the federation
  /// tier hooks the region gateway's crash/recover here).  on_crash runs
  /// right after the coordinator crashes; on_recover right after it
  /// recovers.
  void set_crash_hooks(std::function<void()> on_crash,
                       std::function<void()> on_recover);

  /// Registers the crash-point taxonomy against this campus:
  ///  - kCrashPreAck: group-commit first, then crash — every acked mutation
  ///    is already in its shard image, recovery replays nothing;
  ///  - kCrashPostAckPreFlush: crash with the write-behind ledger dirty —
  ///    acked mutations exist only in the WAL and must replay;
  ///  - kCrashMidGroupCommit: a torn group commit (half the shards advance,
  ///    the WAL is never truncated), then crash — recovery must replay
  ///    idempotently across the tear.
  /// Each fires crash_control_plane(downtime).
  void register_crash_points(util::Duration downtime);

  bool control_plane_crashed() const;

  /// Fleet-wide *delivered* GPU utilization over [t0, t1], computed exactly
  /// from the allocation ledger: each allocation contributes its delivered
  /// compute (training saturates its capacity share; an interactive session
  /// delivers min(share, duty cycle) — a dedicated whole GPU mostly idles
  /// under a bursty notebook, which is what fractional sharing recovers).
  double fleet_utilization(util::SimTime t0, util::SimTime t1) const;

  /// Per-hostname utilization over [t0, t1].
  std::map<std::string, double> per_node_utilization(util::SimTime t0,
                                                     util::SimTime t1) const;

  int total_gpus() const;

 private:
  void register_default_images();
  void attach_storage_endpoints();
  void attach_image_registry_endpoint();
  void wire_owner_reclaim();
  void refresh_metrics();

  sim::Environment& env_;
  CampusConfig config_;
  /// Default tracer; config_.coordinator.tracer points here unless the
  /// owner injected a shared one before construction.
  obs::Tracer own_tracer_;
  sim::LaneId lane_ = sim::kMainLane;
  std::unique_ptr<net::SimNetwork> network_;
  db::ShardedDatabase database_;
  /// Per-shard commit threads, attached to the database in kParallel when
  /// write-behind is on (flush_ledger group commits fork-join across them).
  std::unique_ptr<db::ShardExecutor> shard_executor_;
  container::ImageRegistry registry_;
  storage::CheckpointStore store_;
  monitor::MetricRegistry metrics_;
  std::unique_ptr<sched::Coordinator> coordinator_;
  std::unique_ptr<api::ApiServer> api_;
  std::vector<std::unique_ptr<hw::NodeModel>> node_models_;
  std::vector<std::unique_ptr<agent::ProviderAgent>> agents_;
  std::map<std::string, agent::ProviderAgent*> agents_by_id_;
  std::map<std::string, agent::ProviderAgent*> agents_by_hostname_;
  std::unique_ptr<monitor::Scraper> scraper_;
  std::unique_ptr<sim::PeriodicTimer> metrics_timer_;
  /// Background write-behind commits (CampusConfig::db.flush_interval); the
  /// threshold flush happens inside the database itself.
  std::unique_ptr<sim::PeriodicTimer> db_flush_timer_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::function<void()> crash_hook_;
  std::function<void()> recover_hook_;
  bool started_ = false;
};

}  // namespace gpunion
