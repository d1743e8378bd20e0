#include "gpunion/platform.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "agent/proto.h"
#include "container/image.h"
#include "util/ids.h"
#include "util/logging.h"

namespace gpunion {

Platform::Platform(sim::Environment& env, CampusConfig config)
    : env_(env),
      config_(std::move(config)),
      network_(std::make_unique<net::SimNetwork>(env, config_.network)),
      database_(config_.db),
      store_(config_.checkpoint_store) {
  // One tracer per campus unless the owner (federation tier) injected a
  // shared one — cross-region traces need every hop in one ring.
  if (config_.coordinator.tracer == nullptr) {
    config_.coordinator.tracer = &own_tracer_;
  }
  database_.set_tracer(config_.coordinator.tracer);
  register_default_images();

  // The config is checked in every build type: a duplicate would leave
  // one of the two entries unreachable by id.
  for (const auto& storage_config : config_.storage) {
    if (!store_.add_node(storage_config.id, storage_config.capacity_bytes)
             .is_ok()) {
      throw std::invalid_argument("duplicate storage node id " +
                                  storage_config.id);
    }
  }

  coordinator_ = std::make_unique<sched::Coordinator>(
      env_, *network_, database_, store_, config_.coordinator);

  for (const auto& campus_node : config_.nodes) {
    auto [by_hostname, fresh] =
        agents_by_hostname_.try_emplace(campus_node.spec.hostname);
    if (!fresh) {
      throw std::invalid_argument("duplicate node hostname " +
                                  campus_node.spec.hostname);
    }
    auto model = std::make_unique<hw::NodeModel>(campus_node.spec);
    agent::AgentConfig agent_config = config_.agent_defaults;
    agent_config.coordinator_id = config_.coordinator.id;
    agent_config.owner_group = campus_node.owner_group;
    auto provider = std::make_unique<agent::ProviderAgent>(
        env_, *network_, *model, registry_, store_, agent_config);
    network_->set_access_gbps(provider->machine_id(),
                              campus_node.spec.access_link_gbps);
    agents_by_id_[provider->machine_id()] = provider.get();
    by_hostname->second = provider.get();
    node_models_.push_back(std::move(model));
    agents_.push_back(std::move(provider));
  }

  wire_owner_reclaim();

  if (config_.api.enabled) {
    api_ = std::make_unique<api::ApiServer>(env_, config_.api);
    api_->attach_coordinator(coordinator_.get());
    api_->attach_database(&database_);
    api_->set_tracer(config_.coordinator.tracer);
    api_->set_actor("api/" + config_.coordinator.id);
    api::ResourceVector capacity;
    for (const auto& model : node_models_) {
      for (std::size_t i = 0; i < model->gpu_count(); ++i) {
        capacity.gpus += 1.0;
        capacity.memory_gb += model->gpu(i).spec().memory_gb;
      }
    }
    api_->set_capacity(capacity);
  }

  metrics_timer_ = std::make_unique<sim::PeriodicTimer>(
      env_, config_.scrape_interval, [this] { refresh_metrics(); });
  db_flush_timer_ = std::make_unique<sim::PeriodicTimer>(
      env_, config_.db.flush_interval, [this] {
        database_.flush_ledger(db::FlushTrigger::kInterval, env_.now());
      });
  faults_ = std::make_unique<sim::FaultInjector>(env_);
}

Platform::~Platform() = default;

void Platform::register_default_images() {
  registry_.allow_base("nvidia/cuda:12.1-runtime");
  auto push = [this](container::Image image) {
    auto pushed = registry_.push(image);
    assert(pushed.is_ok());
    (void)pushed;
  };
  push(container::make_image("pytorch", "2.3-cuda12.1",
                             "nvidia/cuda:12.1-runtime", 6ULL << 30,
                             "torch-2.3 cuda-12.1 cudnn-8.9"));
  push(container::make_image("jupyter-dl", "latest",
                             "nvidia/cuda:12.1-runtime", 8ULL << 30,
                             "jupyterlab torch tf keras"));
  push(container::make_image("tensorflow", "2.16-cuda12.1",
                             "nvidia/cuda:12.1-runtime", 7ULL << 30,
                             "tf-2.16 cuda-12.1"));
}

void Platform::attach_storage_endpoints() {
  for (const auto& storage_config : config_.storage) {
    const std::string id = storage_config.id;
    network_->set_access_gbps(id, 10.0);  // NAS on a 10 GbE uplink
    network_->register_endpoint(id, [this, id](net::Message&& msg) {
      switch (msg.kind) {
        case agent::kRestoreRequest: {
          // Stream the checkpoint back to the requesting agent.
          const auto& request =
              std::any_cast<const agent::RestoreRequest&>(msg.payload);
          net::Message data;
          data.from = id;
          data.to = request.requester;
          data.kind = agent::kRestoreData;
          data.traffic_class = net::TrafficClass::kMigration;
          data.size_bytes = std::max<std::uint64_t>(1, request.bytes);
          data.payload = agent::RestoreData{request.job_id};
          (void)network_->send(std::move(data));
          break;
        }
        case agent::kCheckpointData:
          break;  // bytes absorbed; placement metadata lives in the store
        default:
          GPUNION_WLOG("storage") << id << " unexpected message kind "
                                  << msg.kind;
      }
    });
  }
}

void Platform::attach_image_registry_endpoint() {
  network_->set_access_gbps("image-registry", 10.0);
  network_->register_endpoint("image-registry", [this](net::Message&& msg) {
    if (msg.kind != agent::kImagePullRequest) return;
    const auto& request =
        std::any_cast<const agent::ImagePullRequest&>(msg.payload);
    auto image = registry_.resolve(request.image_ref);
    net::Message data;
    data.from = "image-registry";
    data.to = request.requester;
    data.kind = agent::kImageData;
    data.traffic_class = net::TrafficClass::kImage;
    data.size_bytes = image.ok() ? image->size_bytes : 1;
    data.payload = agent::ImageData{request.image_ref};
    (void)network_->send(std::move(data));
  });
}

void Platform::wire_owner_reclaim() {
  coordinator_->set_on_unplaceable([this](const workload::JobSpec& job,
                                          const std::string& owner_node,
                                          int gpus_needed) {
    agent::ProviderAgent* owner_agent = agent(owner_node);
    if (owner_agent == nullptr ||
        owner_agent->state() != agent::AgentState::kActive) {
      return;
    }
    // The owner only reclaims from guests; if the machine is running the
    // group's own work there is nothing to take back.
    if (owner_agent->runtime().live_count() == 0) return;
    const int freed = owner_agent->reclaim_gpus(gpus_needed);
    if (freed > 0) {
      GPUNION_ILOG("platform") << "owner of " << owner_node << " reclaimed "
                               << freed << " GPU(s) for " << job.id;
    }
  });
}

void Platform::start() {
  assert(!started_ && "Platform::start called twice");
  started_ = true;
  coordinator_->start();
  attach_storage_endpoints();
  attach_image_registry_endpoint();
  for (auto& provider : agents_) provider->join();
  metrics_timer_->start();
  db_flush_timer_->start();
  if (api_) api_->start();
}

agent::ProviderAgent* Platform::agent(const std::string& machine_id) {
  auto it = agents_by_id_.find(machine_id);
  return it == agents_by_id_.end() ? nullptr : it->second;
}

agent::ProviderAgent* Platform::agent_by_hostname(
    const std::string& hostname) {
  auto it = agents_by_hostname_.find(hostname);
  return it == agents_by_hostname_.end() ? nullptr : it->second;
}

std::vector<std::string> Platform::machine_ids() const {
  std::vector<std::string> out;
  out.reserve(agents_by_id_.size());
  for (const auto& [id, provider] : agents_by_id_) out.push_back(id);
  return out;
}

std::string Platform::machine_id_for(const std::string& hostname) {
  return util::make_machine_id(hostname, agent::kMachineIdSalt);
}

void Platform::inject_interruption(const workload::Interruption& event) {
  agent::ProviderAgent* provider = agent(event.machine_id);
  if (provider == nullptr || provider->state() != agent::AgentState::kActive) {
    return;  // already offline; the trace generator avoids overlaps
  }
  switch (event.kind) {
    case agent::DepartureKind::kScheduled:
      coordinator_->set_cause_hint(event.machine_id, event.kind);
      provider->depart_scheduled();
      break;
    case agent::DepartureKind::kEmergency:
    case agent::DepartureKind::kTemporary:
      coordinator_->set_cause_hint(event.machine_id, event.kind);
      provider->depart_emergency();
      break;
    case agent::DepartureKind::kReclaim:
      provider->kill_switch();
      return;  // node stays online; no rejoin needed
  }
  env_.schedule_after(event.downtime, [this, machine = event.machine_id] {
    agent::ProviderAgent* returning = agent(machine);
    if (returning != nullptr &&
        returning->state() == agent::AgentState::kDeparted) {
      returning->rejoin();
    }
  });
}

void Platform::schedule_interruption(util::SimTime t,
                                     const workload::Interruption& event) {
  env_.schedule_at(t, [this, event] { inject_interruption(event); });
}

void Platform::set_crash_hooks(std::function<void()> on_crash,
                               std::function<void()> on_recover) {
  crash_hook_ = std::move(on_crash);
  recover_hook_ = std::move(on_recover);
}

bool Platform::control_plane_crashed() const {
  return coordinator_->crashed();
}

void Platform::crash_control_plane(util::Duration downtime) {
  assert(started_ && "crash before start");
  if (coordinator_->crashed()) return;  // one outage at a time
  GPUNION_ILOG("platform") << "control plane crash at " << env_.now()
                           << " (down " << downtime << "s)";
  coordinator_->crash();
  // No group commits while the process is down; the WAL keeps every acked
  // mutation the ledger had not flushed.
  db_flush_timer_->stop();
  if (crash_hook_) crash_hook_();
  env_.schedule_after(downtime, [this] {
    // Restart order matters: durable tables first (the coordinator rebuilds
    // FROM them), then the coordinator, then anything hooked on top (the
    // region gateway repatriates via coordinator_.submit).
    const db::RecoveryReport report = database_.crash_and_recover();
    GPUNION_ILOG("platform")
        << "db recovered: wal_depth=" << report.wal_depth_at_crash
        << " replayed=" << report.replayed
        << " skipped=" << report.skipped_applied
        << " job_states=" << report.job_states;
    coordinator_->recover();
    db_flush_timer_->start();
    if (recover_hook_) recover_hook_();
  });
}

void Platform::register_crash_points(util::Duration downtime) {
  faults_->register_fault(std::string(sim::kCrashPreAck), [this, downtime] {
    // Settle the ledger first: the crash lands between acks, with every
    // acknowledged mutation already durable in its shard image.
    database_.flush_ledger(db::FlushTrigger::kExplicit, env_.now());
    crash_control_plane(downtime);
  });
  faults_->register_fault(std::string(sim::kCrashPostAckPreFlush),
                          [this, downtime] {
                            // Dirty ledger: acked work lives only in the WAL.
                            crash_control_plane(downtime);
                          });
  faults_->register_fault(
      std::string(sim::kCrashMidGroupCommit), [this, downtime] {
        // Tear the group commit down the middle: half (rounded down) of
        // the shards holding unapplied records advance, the WAL never
        // truncates, then the process dies.  At least one behind shard
        // stays behind, so recovery replays whenever the WAL holds work.
        database_.arm_flush_crash(database_.wal().shards_behind() / 2);
        database_.flush_ledger(db::FlushTrigger::kExplicit, env_.now());
        crash_control_plane(downtime);
      });
}

int Platform::total_gpus() const {
  int total = 0;
  for (const auto& model : node_models_) {
    total += static_cast<int>(model->gpu_count());
  }
  return total;
}

namespace {

/// Delivered compute per bound GPU for one allocation, in GPU units.
///
/// An interactive session only drives the device in bursts: a whole GPU
/// dedicated to one session delivers its duty cycle, not 1.0 — the waste
/// fractional sharing recovers, where up to slots tenants interleave their
/// bursts and each delivers its full slot share.  Training saturates an
/// exclusive allocation; as a shared tenant it delivers the same
/// kSharedComputeShare the progress model runs it at (the static-share
/// simplification documented in workload/job.h), keeping utilization
/// accounting consistent with simulated compute.
double delivered_gpu_fraction(const db::AllocationRecord& allocation) {
  if (allocation.interactive) {
    return std::min(allocation.gpu_fraction, workload::kInteractiveDutyCycle);
  }
  return allocation.gpu_fraction < 1.0 ? workload::kSharedComputeShare : 1.0;
}

}  // namespace

double Platform::fleet_utilization(util::SimTime t0, util::SimTime t1) const {
  assert(t1 > t0);
  double busy_gpu_seconds = 0;
  for (const auto& allocation : database_.allocation_ledger()) {
    const double start = std::max(allocation.started_at, t0);
    const double end = std::min(
        allocation.outcome == db::AllocationOutcome::kRunning
            ? t1
            : allocation.ended_at,
        t1);
    if (end > start) {
      busy_gpu_seconds +=
          (end - start) * delivered_gpu_fraction(allocation) *
          static_cast<double>(std::max<std::size_t>(
              1, allocation.gpu_indices.size()));
    }
  }
  const double capacity = static_cast<double>(total_gpus()) * (t1 - t0);
  return capacity > 0 ? busy_gpu_seconds / capacity : 0.0;
}

std::map<std::string, double> Platform::per_node_utilization(
    util::SimTime t0, util::SimTime t1) const {
  assert(t1 > t0);
  std::map<std::string, double> busy;  // machine id -> busy gpu-seconds
  for (const auto& allocation : database_.allocation_ledger()) {
    const double start = std::max(allocation.started_at, t0);
    const double end = std::min(
        allocation.outcome == db::AllocationOutcome::kRunning
            ? t1
            : allocation.ended_at,
        t1);
    if (end > start) {
      busy[allocation.machine_id] +=
          (end - start) * delivered_gpu_fraction(allocation) *
          static_cast<double>(std::max<std::size_t>(
              1, allocation.gpu_indices.size()));
    }
  }
  std::map<std::string, double> out;
  for (const auto& model : node_models_) {
    const std::string machine = machine_id_for(model->hostname());
    const double capacity =
        static_cast<double>(model->gpu_count()) * (t1 - t0);
    out[model->hostname()] = capacity > 0 ? busy[machine] / capacity : 0.0;
  }
  return out;
}

void Platform::refresh_metrics() {
  auto& nodes_gauge =
      metrics_.gauge_family("gpunion_nodes_active", "Active provider nodes")
          .gauge();
  auto& queue_gauge =
      metrics_
          .gauge_family("gpunion_queue_depth", "Pending resource requests")
          .gauge();
  auto& running_gauge = metrics_
                            .gauge_family("gpunion_jobs_running",
                                          "Jobs currently running")
                            .gauge();
  int active = 0;
  for (const sched::NodeInfo* node : coordinator_->directory().all()) {
    if (node->status == db::NodeStatus::kActive) ++active;
  }
  nodes_gauge.set(active);
  queue_gauge.set(static_cast<double>(database_.queue_depth()));
  int running = 0;
  for (const auto& [id, record] : coordinator_->jobs()) {
    if (record.phase == sched::JobPhase::kRunning) ++running;
  }
  running_gauge.set(running);

  auto& util_family = metrics_.gauge_family(
      "gpunion_gpu_busy_fraction", "Allocated GPU fraction per node");
  for (const auto& model : node_models_) {
    util_family.gauge({{"node", model->hostname()}})
        .set(model->busy_fraction());
  }

  // Span-derived stage latencies + ring accounting (tracer-side histograms
  // copied in here — the tracer never touches the registry at record time).
  if (auto* tracer = config_.coordinator.tracer; tracer != nullptr) {
    tracer->publish_metrics(metrics_);
  }

  // Request-plane tenant gauges (top-K per-tenant + aggregate outcomes).
  if (api_) api_->publish_metrics(metrics_);

  // Dark data: counters subsystems always kept but never exposed.
  const db::RecoveryReport& recovery = database_.last_recovery_report();
  auto& recovery_family = metrics_.gauge_family(
      "gpunion_db_recovery", "Last crash recovery: WAL replay accounting");
  recovery_family.gauge({{"stat", "recoveries"}})
      .set(static_cast<double>(database_.recoveries()));
  recovery_family.gauge({{"stat", "wal_depth"}})
      .set(static_cast<double>(recovery.wal_depth_at_crash));
  recovery_family.gauge({{"stat", "replayed"}})
      .set(static_cast<double>(recovery.replayed));
  recovery_family.gauge({{"stat", "skipped"}})
      .set(static_cast<double>(recovery.skipped_applied));
  auto& rebuilt_family = metrics_.gauge_family(
      "gpunion_db_recovery_rows", "Rows rebuilt by the last crash recovery");
  rebuilt_family.gauge({{"table", "nodes"}})
      .set(static_cast<double>(recovery.nodes));
  rebuilt_family.gauge({{"table", "allocations"}})
      .set(static_cast<double>(recovery.allocations));
  rebuilt_family.gauge({{"table", "queue"}})
      .set(static_cast<double>(recovery.queue_rows));
  rebuilt_family.gauge({{"table", "job_states"}})
      .set(static_cast<double>(recovery.job_states));
  rebuilt_family.gauge({{"table", "forward_states"}})
      .set(static_cast<double>(recovery.forward_states));
  rebuilt_family.gauge({{"table", "handoffs"}})
      .set(static_cast<double>(recovery.handoffs));

  auto& pops_family = metrics_.gauge_family(
      "gpunion_db_queue_pops",
      "Pending-queue takes served by the row's own shard or another");
  pops_family.gauge({{"kind", "local"}})
      .set(static_cast<double>(database_.local_pops()));
  pops_family.gauge({{"kind", "stolen"}})
      .set(static_cast<double>(database_.stolen_pops()));

  const db::LedgerStats& ledger = database_.ledger().stats();
  auto& ledger_family = metrics_.gauge_family(
      "gpunion_db_ledger", "Write-behind ledger group-commit accounting");
  ledger_family.gauge({{"stat", "absorbed"}})
      .set(static_cast<double>(ledger.absorbed));
  ledger_family.gauge({{"stat", "entries_flushed"}})
      .set(static_cast<double>(ledger.entries_flushed));
  ledger_family.gauge({{"stat", "flushes"}})
      .set(static_cast<double>(ledger.flushes));
  ledger_family.gauge({{"stat", "shard_commits"}})
      .set(static_cast<double>(ledger.shard_commits));
  ledger_family.gauge({{"stat", "pending"}})
      .set(static_cast<double>(database_.ledger().pending()));
  ledger_family.gauge({{"stat", "max_pending"}})
      .set(static_cast<double>(ledger.max_pending));

  auto& faults_family = metrics_.gauge_family(
      "gpunion_fault_injections", "Times each registered fault point fired");
  for (const std::string& name : faults_->names()) {
    faults_family.gauge({{"fault", name}})
        .set(static_cast<double>(faults_->fired(name)));
  }

  const sim::QueueStats queue_stats = env_.queue_stats();
  auto& sim_family = metrics_.gauge_family(
      "gpunion_sim_queue", "Event-queue internals");
  sim_family.gauge({{"stat", "live"}})
      .set(static_cast<double>(queue_stats.live));
  sim_family.gauge({{"stat", "tombstones"}})
      .set(static_cast<double>(queue_stats.tombstones));
  sim_family.gauge({{"stat", "compactions"}})
      .set(static_cast<double>(queue_stats.compactions));
}

}  // namespace gpunion
