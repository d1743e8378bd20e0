#include "agent/provider_agent.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <variant>

#include "util/ids.h"
#include "util/logging.h"

namespace gpunion::agent {

namespace {

/// GPU utilization a container drives.
constexpr double kTrainingUtilization = 0.95;
constexpr double kInteractiveUtilization = 0.55;

}  // namespace

ProviderAgent::ProviderAgent(sim::Environment& env, net::Transport& transport,
                             hw::NodeModel& node,
                             const container::ImageRegistry& registry,
                             storage::CheckpointStore& store,
                             AgentConfig config)
    : env_(env),
      transport_(transport),
      node_(node),
      registry_(registry),
      store_(store),
      config_(std::move(config)),
      runtime_(node, registry),
      rng_(env.fork_rng("agent." + node.hostname())),
      machine_id_(util::make_machine_id(node.hostname(), kMachineIdSalt)),
      slicer_(env, node) {
  TimesliceHooks slicer_hooks;
  slicer_hooks.on_residency_change = [this](const std::string& job_id,
                                            bool resident,
                                            util::Duration swap_pause) {
    on_residency_change(job_id, resident, swap_pause);
  };
  slicer_hooks.on_evict = [this](const std::string& job_id) {
    evict_timeslice_tenant(job_id);
  };
  slicer_.set_hooks(std::move(slicer_hooks));
}

ProviderAgent::~ProviderAgent() {
  for (auto& [id, job] : jobs_) stop_job_events(job);
}

// ---------------------------------------------------------------------------
// Provider controls
// ---------------------------------------------------------------------------

void ProviderAgent::join() {
  assert(state_ == AgentState::kOffline && "join from non-offline state");
  transport_.register_endpoint(
      machine_id_,
      [this](net::Message&& msg) { handle_message(std::move(msg)); });
  send_register_request();
  GPUNION_ILOG("agent") << machine_id_ << " joining as " << node_.hostname();
}

void ProviderAgent::send_register_request() {
  if (state_ != AgentState::kOffline) return;
  RegisterRequest request;
  request.machine_id = machine_id_;
  request.hostname = node_.hostname();
  request.owner_group = config_.owner_group;
  request.gpu_count = static_cast<int>(node_.gpu_count());
  if (node_.gpu_count() > 0) {
    const auto& spec = node_.gpu(0).spec();
    request.gpu_model = spec.name;
    request.gpu_memory_gb = spec.memory_gb;
    request.compute_capability = spec.compute_capability;
    request.gpu_tflops = spec.fp32_tflops;
    for (const hw::Tenancy mode : hw::kSharedTenancies) {
      request.seats_per_gpu[mode] = node_.seats_per_gpu(mode);
    }
    request.share_memory_cap_gb = node_.share_memory_cap(0);
  }
  send_control(std::move(request), kRegisterBytes);
  // The request or its response may be lost; retry until activated (the
  // paper's "automatic registration scripts" keep trying).
  env_.schedule_after(10.0, [this] { send_register_request(); });
}

std::vector<std::string> ProviderAgent::kill_switch() {
  std::vector<std::string> killed;
  for (auto& [id, job] : jobs_) {
    stop_job_events(job);
    (void)runtime_.kill(job.container_id, env_.now());
    killed.push_back(id);
  }
  jobs_.clear();
  slicer_.clear();
  if (!killed.empty() && state_ == AgentState::kActive) {
    send_control(KillSwitchNotice{machine_id_, killed},
                 kControlBytes + 40 * killed.size());
  }
  GPUNION_ILOG("agent") << machine_id_ << " kill-switch: " << killed.size()
                        << " guests terminated";
  return killed;
}

void ProviderAgent::set_paused(bool paused) {
  paused_ = paused;
  // Advertise the change immediately rather than waiting a beat.
  if (state_ == AgentState::kActive) send_heartbeat();
}

void ProviderAgent::depart_scheduled() {
  if (state_ != AgentState::kActive) return;

  DepartureNotice notice;
  notice.machine_id = machine_id_;
  notice.kind = DepartureKind::kScheduled;

  // Final checkpoints within the grace window, in job-id order.  Jobs whose
  // cumulative serialization time exceeds the grace keep only their last
  // periodic checkpoint.
  util::Duration used = 0;
  for (auto& [id, job] : jobs_) {
    DepartingJob record;
    record.job_id = id;
    if (job.spec.type == workload::JobType::kTraining &&
        job.compute_started) {
      const util::Duration pause =
          workload::checkpoint_pause_seconds(job.spec.state);
      if (used + pause <= config_.departure_grace) {
        used += pause;
        auto checkpoint = write_checkpoint(job, /*count_pause=*/false);
        record.fresh_checkpoint = checkpoint.ok();
      }
    }
    record.checkpointed_progress = job.checkpointed_progress;
    notice.jobs.push_back(record);
  }

  for (auto& [id, job] : jobs_) {
    stop_job_events(job);
    (void)runtime_.kill(job.container_id, env_.now());
  }
  jobs_.clear();
  slicer_.clear();

  const std::size_t departing = notice.jobs.size();
  send_control(std::move(notice), kControlBytes + 64 * departing);
  heartbeat_timer_.reset();
  telemetry_timer_.reset();
  transport_.unregister_endpoint(machine_id_);
  state_ = AgentState::kDeparted;
  GPUNION_ILOG("agent") << machine_id_ << " departed (scheduled), "
                        << departing << " jobs checkpointed";
}

void ProviderAgent::depart_emergency() {
  if (state_ == AgentState::kOffline) return;
  // Power pull: containers die, nothing is sent, timers stop.
  for (auto& [id, job] : jobs_) {
    stop_job_events(job);
    (void)runtime_.kill(job.container_id, env_.now());
  }
  jobs_.clear();
  slicer_.clear();
  heartbeat_timer_.reset();
  telemetry_timer_.reset();
  transport_.unregister_endpoint(machine_id_);
  state_ = AgentState::kDeparted;
  GPUNION_ILOG("agent") << machine_id_ << " departed (emergency)";
}

void ProviderAgent::rejoin() {
  assert(state_ == AgentState::kDeparted && "rejoin only after departure");
  state_ = AgentState::kOffline;
  paused_ = false;
  join();
  send_control(ReturnNotice{machine_id_}, kControlBytes);
}

int ProviderAgent::reclaim_gpus(int gpus) {
  if (gpus <= 0) return 0;
  // Evict guests only (never the owner group's own jobs), most recently
  // started first so the least progress is disturbed.
  std::vector<std::string> candidates;
  for (const auto& [id, job] : jobs_) {
    if (job.spec.owner_group != config_.owner_group) candidates.push_back(id);
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](const std::string& a, const std::string& b) {
              return jobs_[a].effective_start > jobs_[b].effective_start;
            });

  KillSwitchNotice notice;
  notice.machine_id = machine_id_;
  int freed = 0;
  for (const auto& id : candidates) {
    if (freed >= gpus) break;
    RunningJob& job = jobs_[id];
    if (job.spec.type == workload::JobType::kTraining &&
        job.compute_started) {
      (void)write_checkpoint(job, /*count_pause=*/false);
    }
    stop_job_events(job);
    (void)runtime_.kill(job.container_id, env_.now());
    freed += job.spec.requirements.gpu_count;
    notice.killed_jobs.push_back(id);
    const RunningJob departed = std::move(jobs_[id]);
    jobs_.erase(id);
    drop_from_slicer(id, departed);
  }
  if (!notice.killed_jobs.empty()) {
    const std::uint64_t bytes = kControlBytes + 40 * notice.killed_jobs.size();
    send_control(std::move(notice), bytes);
  }
  return freed;
}

std::vector<std::string> ProviderAgent::running_job_ids() const {
  std::vector<std::string> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(id);
  return out;
}

double ProviderAgent::job_progress(const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return -1.0;
  return live_progress(it->second);
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void ProviderAgent::handle_message(net::Message&& msg) {
  std::visit(
      net::Overloaded{
          [this](const RegisterResponse& m) { handle_register_response(m); },
          [this](DispatchRequest& m) { handle_dispatch(std::move(m)); },
          [this](const KillJobCommand& m) { handle_kill_job(m); },
          [this](const RestoreData& m) { handle_restore_data(m); },
          [this](const ImageData& m) { handle_image_data(m); },
          [this, &msg](const auto&) {
            GPUNION_WLOG("agent") << machine_id_ << " unexpected payload "
                                  << msg.payload.index();
          }},
      msg.payload);
}

void ProviderAgent::handle_register_response(
    const RegisterResponse& response) {
  if (!response.accepted) {
    GPUNION_WLOG("agent") << machine_id_ << " registration rejected";
    return;
  }
  auth_token_ = response.auth_token;
  state_ = AgentState::kActive;
  config_.heartbeat_interval = response.heartbeat_interval;
  heartbeat_timer_ = std::make_unique<sim::PeriodicTimer>(
      env_, config_.heartbeat_interval, [this] { send_heartbeat(); });
  heartbeat_timer_->start_after(0);
  telemetry_timer_ = std::make_unique<sim::PeriodicTimer>(
      env_, config_.telemetry_interval, [this] { send_telemetry(); });
  telemetry_timer_->start();
}

void ProviderAgent::reject_dispatch(const std::string& job_id,
                                    const std::string& reason) {
  DispatchResult result;
  result.machine_id = machine_id_;
  result.job_id = job_id;
  result.accepted = false;
  result.reason = reason;
  send_control(std::move(result), kControlBytes);
}

void ProviderAgent::handle_dispatch(DispatchRequest request) {
  const std::string job_id = request.job.id;
  if (state_ != AgentState::kActive) {
    reject_dispatch(job_id, "agent not active");
    return;
  }
  if (paused_) {
    reject_dispatch(job_id, "provider paused allocations");
    return;
  }
  if (auto it = jobs_.find(job_id); it != jobs_.end()) {
    // Idempotent dispatch: the previous accept was lost in transit and the
    // coordinator retried.  Re-acknowledge the existing run.
    DispatchResult result;
    result.machine_id = machine_id_;
    result.job_id = job_id;
    result.accepted = true;
    result.container_id = it->second.container_id;
    if (const container::Container* c =
            runtime_.find(it->second.container_id)) {
      result.gpu_indices = c->config().limits.gpu_indices;
      result.gpu_fraction = c->config().limits.gpu_fraction;
    }
    send_control(std::move(result), kControlBytes);
    return;
  }

  auto image = registry_.resolve(request.job.image_ref);
  if (!image.ok()) {
    reject_dispatch(job_id, image.status().message());
    return;
  }

  const auto& req = request.job.requirements;
  const hw::Tenancy mode = request.tenancy;
  const double footprint = workload::footprint_gb(request.job, mode);
  std::vector<int> gpu_indices;
  if (mode == hw::Tenancy::kWhole) {
    auto gpus = node_.find_gpus(req.gpu_count, req.gpu_memory_gb,
                                req.min_compute_capability);
    if (!gpus) {
      reject_dispatch(job_id, "no compatible free GPUs");
      return;
    }
    gpu_indices = *gpus;
  } else {
    auto seat = node_.find_seat(mode, footprint, req.min_compute_capability);
    if (!seat) {
      reject_dispatch(job_id, "no free GPU " +
                                  std::string(hw::tenancy_unit(mode)));
      return;
    }
    gpu_indices = {*seat};
  }
  // Expected fair share of each bound GPU, for honest ledger accounting.
  const double gpu_fraction = 1.0 / std::max(1, node_.seats_per_gpu(mode));

  container::ContainerConfig cfg;
  cfg.image = *image;
  cfg.mode = request.job.type == workload::JobType::kInteractive
                 ? container::ExecutionMode::kInteractive
                 : container::ExecutionMode::kBatch;
  cfg.limits.gpu_indices = gpu_indices;
  cfg.limits.tenancy = mode;
  cfg.limits.gpu_memory_gb = footprint;
  cfg.limits.gpu_fraction = gpu_fraction;
  // Shared tenants (spatial or time-sliced) get a proportionally smaller
  // host budget: every advertised seat must be hostable, so tenants may
  // never exceed the node's cores/RAM (else the coordinator's seat view
  // and the host's container capacity diverge into dispatch-reject loops).
  const bool shared_tenant = mode != hw::Tenancy::kWhole;
  cfg.limits.host_memory_gb = shared_tenant ? 4.0 : 8.0;
  cfg.limits.cpu_cores = shared_tenant ? 2.0 : 4.0;
  const double utilization =
      request.job.type == workload::JobType::kInteractive
          ? kInteractiveUtilization
          : kTrainingUtilization;
  cfg.env["NVIDIA_VISIBLE_DEVICES"] = "";  // filled after create

  auto container_id = runtime_.create(cfg, job_id, utilization, env_.now());
  if (!container_id.ok()) {
    reject_dispatch(job_id, container_id.status().message());
    return;
  }

  RunningJob job;
  job.spec = std::move(request.job);
  job.container_id = *container_id;
  job.start_progress = request.start_progress;
  job.checkpointed_progress = request.start_progress;
  const double tflops =
      node_.gpu(static_cast<std::size_t>(gpu_indices[0])).spec().fp32_tflops;
  job.speed = workload::speed_factor(tflops) *
              (1.0 - container::kGpuOverheadFraction) *
              std::max(1, job.spec.requirements.gpu_count);
  if (mode == hw::Tenancy::kFractional) {
    // Spatial tenant: the slice delivers a fraction of the device
    // (co-tenants are bursty, so more than 1/slots).
    job.speed *= workload::kSharedComputeShare;
  }
  // A time-sliced tenant keeps FULL device speed — but accrues progress
  // only while resident, which the quantum scheduler controls.
  job.tenancy = mode;
  if (mode == hw::Tenancy::kTimeslice) {
    job.resident =
        node_.gpu(static_cast<std::size_t>(gpu_indices[0])).resident() ==
        job_id;
  }
  job.restore_bytes = request.restore_bytes;
  job.restore_from = request.restore_from;
  job.pending_pull = !runtime_.image_cached(job.spec.image_ref);
  job.pending_restore = request.restore_bytes > 0 &&
                        !request.restore_from.empty();
  jobs_.emplace(job_id, std::move(job));
  if (mode == hw::Tenancy::kTimeslice) {
    slicer_.add_tenant(gpu_indices[0], job_id, footprint);
  }

  DispatchResult result;
  result.machine_id = machine_id_;
  result.job_id = job_id;
  result.accepted = true;
  result.container_id = *container_id;
  result.gpu_indices = gpu_indices;
  result.gpu_fraction = gpu_fraction;
  send_control(std::move(result), kControlBytes);

  advance_dispatch(job_id);
}

void ProviderAgent::advance_dispatch(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  RunningJob& job = it->second;

  if (job.pending_pull) {
    if (!transport_
             .send({machine_id_, "image-registry", net::TrafficClass::kControl,
                    kControlBytes,
                    ImagePullRequest{machine_id_, job.spec.image_ref}})
             .is_ok()) {
      // No registry endpoint in this deployment: treat the image as local.
      job.pending_pull = false;
      runtime_.mark_image_cached(job.spec.image_ref);
    } else {
      env_.schedule_after(90.0,
                          [this, job_id] { retry_stalled_dispatch(job_id); });
      return;  // wait for ImageData
    }
  }

  if (job.pending_restore) {
    if (!transport_
             .send({machine_id_, job.restore_from, net::TrafficClass::kControl,
                    kControlBytes,
                    RestoreRequest{machine_id_, job_id, job.restore_bytes}})
             .is_ok()) {
      job.pending_restore = false;  // storage gone; resume without transfer
    } else {
      env_.schedule_after(180.0,
                          [this, job_id] { retry_stalled_dispatch(job_id); });
      return;  // wait for RestoreData
    }
  }

  env_.schedule_after(container::kStartupOverhead,
                      [this, job_id] { begin_compute(job_id); });
}

void ProviderAgent::retry_stalled_dispatch(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  if (it->second.pending_pull || it->second.pending_restore) {
    // The pull/restore request or its data went missing; ask again.
    advance_dispatch(job_id);
  }
}

void ProviderAgent::handle_image_data(const ImageData& data) {
  runtime_.mark_image_cached(data.image_ref);
  // Unblock every job waiting on this image.
  std::vector<std::string> waiting;
  for (auto& [id, job] : jobs_) {
    if (job.pending_pull && job.spec.image_ref == data.image_ref) {
      job.pending_pull = false;
      waiting.push_back(id);
    }
  }
  for (const auto& id : waiting) advance_dispatch(id);
}

void ProviderAgent::handle_restore_data(const RestoreData& data) {
  auto it = jobs_.find(data.job_id);
  if (it == jobs_.end()) return;
  if (!it->second.pending_restore) return;
  it->second.pending_restore = false;
  advance_dispatch(data.job_id);
}

void ProviderAgent::handle_kill_job(const KillJobCommand& command) {
  auto it = jobs_.find(command.job_id);
  if (it == jobs_.end()) return;
  RunningJob& job = it->second;

  JobKilledAck ack;
  ack.machine_id = machine_id_;
  ack.job_id = command.job_id;
  if (command.allow_checkpoint &&
      job.spec.type == workload::JobType::kTraining && job.compute_started) {
    auto checkpoint = write_checkpoint(job, /*count_pause=*/false);
    ack.fresh_checkpoint = checkpoint.ok();
  }
  ack.checkpointed_progress = job.checkpointed_progress;

  stop_job_events(job);
  (void)runtime_.kill(job.container_id, env_.now());
  const RunningJob killed = std::move(job);
  jobs_.erase(it);
  drop_from_slicer(command.job_id, killed);
  send_control(std::move(ack), kControlBytes);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

double ProviderAgent::live_progress(const RunningJob& job) const {
  if (!job.compute_started) return job.start_progress;
  if (job.spec.type == workload::JobType::kInteractive) return 0.0;
  // A swapped-out time-sliced tenant accrues nothing until it rotates in.
  if (job.tenancy == hw::Tenancy::kTimeslice && !job.resident) {
    return job.start_progress;
  }
  const double work = (env_.now() - job.effective_start) * job.speed;
  return std::min(1.0, job.start_progress +
                           work / job.spec.reference_duration);
}

void ProviderAgent::begin_compute(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;  // killed while waiting for pull/restore
  RunningJob& job = it->second;

  auto started = runtime_.start(job.container_id, env_.now());
  if (!started.is_ok()) {
    GPUNION_ELOG("agent") << machine_id_ << " failed to start container: "
                          << started.to_string();
    return;
  }
  job.compute_started = true;
  job.effective_start = env_.now();

  send_control(JobStarted{machine_id_, job_id, job.start_progress},
               kControlBytes);

  if (job.spec.type == workload::JobType::kInteractive) {
    // Sessions are wall-clock (including any quantum swap pauses a
    // time-sliced session sits through).
    job.completion_event =
        env_.schedule_after(job.spec.reference_duration,
                            [this, job_id] { complete_job(job_id); });
  } else if (job.tenancy != hw::Tenancy::kTimeslice || job.resident) {
    const util::Duration remaining =
        (1.0 - job.start_progress) * job.spec.reference_duration / job.speed;
    job.completion_event = env_.schedule_after(
        remaining, [this, job_id] { complete_job(job_id); });
  }
  // else: swapped-out time-sliced training — completion is armed when the
  // slicer rotates the tenant in.

  if (job.spec.type == workload::JobType::kTraining &&
      job.spec.checkpoint_interval > 0) {
    job.checkpoint_event = env_.schedule_after(
        job.spec.checkpoint_interval,
        [this, job_id] { periodic_checkpoint(job_id); });
  }
}

void ProviderAgent::complete_job(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  RunningJob& job = it->second;
  job.completion_event = sim::kInvalidEvent;
  if (job.checkpoint_event != sim::kInvalidEvent) {
    env_.cancel(job.checkpoint_event);
    job.checkpoint_event = sim::kInvalidEvent;
  }
  (void)runtime_.exit(job.container_id, env_.now());

  send_control(JobCompleted{machine_id_, job_id}, kControlBytes);
  const RunningJob finished = std::move(job);
  jobs_.erase(it);
  drop_from_slicer(job_id, finished);
}

util::StatusOr<storage::Checkpoint> ProviderAgent::write_checkpoint(
    RunningJob& job, bool count_pause) {
  const double progress = live_progress(job);
  if (!job.spec.preferred_storage.empty()) {
    store_.set_preference(job.spec.id, job.spec.preferred_storage);
  }
  auto checkpoint = store_.write(job.spec.id, job.spec.state.state_bytes,
                                 job.spec.state.dirty_fraction, progress,
                                 env_.now());
  if (!checkpoint.ok()) return checkpoint;

  job.checkpointed_progress = progress;
  job.checkpoint_seq = checkpoint->seq;

  // Ship the delta to the storage node (backup traffic, §4).
  (void)transport_.send(net::Message{
      machine_id_, checkpoint->storage_node, net::TrafficClass::kCheckpoint,
      checkpoint->stored_bytes, CheckpointData{job.spec.id}});

  // Tell the coordinator about the new durable progress.
  CheckpointNotice notice;
  notice.machine_id = machine_id_;
  notice.job_id = job.spec.id;
  notice.seq = checkpoint->seq;
  notice.progress = progress;
  notice.stored_bytes = checkpoint->stored_bytes;
  notice.storage_node = checkpoint->storage_node;
  send_control(std::move(notice), kControlBytes);

  if (count_pause && job.completion_event != sim::kInvalidEvent) {
    // Serialization stalls training: push completion out by the pause.
    const util::Duration pause =
        workload::checkpoint_pause_seconds(job.spec.state);
    job.effective_start += pause;
    env_.cancel(job.completion_event);
    const double remaining_work =
        (1.0 - job.start_progress) * job.spec.reference_duration;
    const util::SimTime completion_at =
        job.effective_start + remaining_work / job.speed;
    const std::string job_id = job.spec.id;
    job.completion_event = env_.schedule_at(
        std::max(env_.now(), completion_at),
        [this, job_id] { complete_job(job_id); });
  }
  return checkpoint;
}

void ProviderAgent::periodic_checkpoint(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  RunningJob& job = it->second;
  job.checkpoint_event = sim::kInvalidEvent;
  if (!job.compute_started) return;

  auto checkpoint = write_checkpoint(job, /*count_pause=*/true);
  if (!checkpoint.ok()) {
    GPUNION_WLOG("agent") << machine_id_ << " checkpoint failed for "
                          << job_id << ": " << checkpoint.status().to_string();
  }

  const util::Duration pause =
      checkpoint.ok() ? workload::checkpoint_pause_seconds(job.spec.state)
                      : 0.0;
  job.checkpoint_event =
      env_.schedule_after(job.spec.checkpoint_interval + pause,
                          [this, job_id] { periodic_checkpoint(job_id); });
}

void ProviderAgent::stop_job_events(RunningJob& job) {
  if (job.completion_event != sim::kInvalidEvent) {
    env_.cancel(job.completion_event);
    job.completion_event = sim::kInvalidEvent;
  }
  if (job.checkpoint_event != sim::kInvalidEvent) {
    env_.cancel(job.checkpoint_event);
    job.checkpoint_event = sim::kInvalidEvent;
  }
}

// ---------------------------------------------------------------------------
// Time-slicing
// ---------------------------------------------------------------------------

void ProviderAgent::on_residency_change(const std::string& job_id,
                                        bool resident,
                                        util::Duration swap_pause) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  RunningJob& job = it->second;

  if (!resident) {
    // Rotating out: fold the progress accrued this quantum and freeze.
    if (job.compute_started &&
        job.spec.type != workload::JobType::kInteractive) {
      job.start_progress = live_progress(job);
      if (job.completion_event != sim::kInvalidEvent) {
        env_.cancel(job.completion_event);
        job.completion_event = sim::kInvalidEvent;
      }
    }
    job.resident = false;
    return;
  }

  job.resident = true;
  if (!job.compute_started ||
      job.spec.type == workload::JobType::kInteractive) {
    // Interactive sessions run wall-clock (completion was armed at start);
    // not-yet-started jobs arm completion in begin_compute.
    return;
  }
  // Resume computing after the swap-in pause, from the folded progress.
  job.effective_start = env_.now() + swap_pause;
  if (job.completion_event != sim::kInvalidEvent) {
    env_.cancel(job.completion_event);
  }
  const double remaining_work =
      std::max(0.0, 1.0 - job.start_progress) * job.spec.reference_duration;
  const util::SimTime completion_at =
      job.effective_start + remaining_work / job.speed;
  job.completion_event =
      env_.schedule_at(std::max(env_.now(), completion_at),
                       [this, job_id] { complete_job(job_id); });
}

void ProviderAgent::evict_timeslice_tenant(const std::string& job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  RunningJob& job = it->second;

  if (job.spec.type == workload::JobType::kTraining && job.compute_started) {
    (void)write_checkpoint(job, /*count_pause=*/false);
  }
  int gpu_index = -1;
  if (const auto* c = runtime_.find(job.container_id);
      c != nullptr && !c->config().limits.gpu_indices.empty()) {
    gpu_index = c->config().limits.gpu_indices[0];
  }
  stop_job_events(job);
  (void)runtime_.kill(job.container_id, env_.now());
  jobs_.erase(it);
  // The slicer's tick requires the tenant be removed before the hook
  // returns; the notice lets the coordinator requeue the job elsewhere.
  if (gpu_index >= 0) slicer_.remove_tenant(gpu_index, job_id);
  send_control(KillSwitchNotice{machine_id_, {job_id}}, kControlBytes + 40);
  GPUNION_ILOG("agent") << machine_id_ << " evicted thrashing tenant "
                        << job_id;
}

void ProviderAgent::drop_from_slicer(const std::string& job_id,
                                     const RunningJob& job) {
  if (job.tenancy != hw::Tenancy::kTimeslice) return;
  const auto* c = runtime_.find(job.container_id);
  if (c == nullptr || c->config().limits.gpu_indices.empty()) return;
  slicer_.remove_tenant(c->config().limits.gpu_indices[0], job_id);
}

// ---------------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------------

void ProviderAgent::send_control(net::Payload payload, std::uint64_t bytes) {
  const net::TrafficClass traffic_class =
      std::holds_alternative<Heartbeat>(payload) ? net::TrafficClass::kHeartbeat
      : std::holds_alternative<TelemetryReport>(payload)
          ? net::TrafficClass::kTelemetry
          : net::TrafficClass::kControl;
  (void)transport_.send(net::Message{machine_id_, config_.coordinator_id,
                                     traffic_class, bytes, std::move(payload)});
}

void ProviderAgent::send_heartbeat() {
  if (state_ != AgentState::kActive) return;
  Heartbeat beat;
  beat.machine_id = machine_id_;
  beat.auth_token = auth_token_;
  beat.seq = ++heartbeat_seq_;
  beat.free_gpus = node_.free_gpu_count();
  for (const hw::Tenancy mode : hw::kSharedTenancies) {
    beat.free_seats[mode] = node_.free_seat_count(mode);
  }
  beat.accepting = !paused_;
  beat.running_jobs = running_job_ids();
  ++heartbeats_sent_;
  const std::uint64_t bytes = kHeartbeatBytes + 24 * beat.running_jobs.size();
  send_control(std::move(beat), bytes);
}

void ProviderAgent::send_telemetry() {
  if (state_ != AgentState::kActive) return;
  send_control(
      TelemetryReport{machine_id_},
      kTelemetryBytesPerGpu * std::max<std::size_t>(1, node_.gpu_count()));
}

}  // namespace gpunion::agent
