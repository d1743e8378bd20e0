// Discrete-event simulation environment.
//
// Every GPUnion component (agents, coordinator, network, workloads) receives
// an Environment& and uses it for *all* time, scheduling and randomness.
// Running the same configuration with the same seed therefore reproduces an
// experiment event-for-event, which EXPERIMENTS.md relies on.
//
// Two execution modes sit behind this one API:
//
//  - kDeterministic (default): one event shard, one thread, the exact
//    pre-refactor (time, insertion-order) global fire order.  All invariant
//    harnesses (GPUNION_INVARIANT_SEED) replay bit-identically here.
//  - kParallel: `worker_threads` real threads.  Each actor lane maps onto a
//    queue shard owned by one worker; time advances in conservative windows
//    [t_min, t_min + lookahead) so no worker runs ahead of the global safe
//    time (classic conservative PDES).  Events whose timestamps differ by
//    less than the lookahead may fire in a different relative order than in
//    kDeterministic — causality is preserved, tie order is not.
//
// Memory model: within a window, a lane's events run on one thread in time
// order (happens-before along the lane).  Window barriers give a total
// happens-before edge between windows, and exclusive events run with every
// worker quiesced, so they may touch any actor's state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/sharded_event_queue.h"
#include "util/rng.h"
#include "util/time.h"

namespace gpunion::sim {

/// Identifies an actor's event lane.  Lanes created by register_lane() map
/// onto queue shards (lane % workers in kParallel; all lanes fold onto one
/// shard in kDeterministic, which is what makes that mode bit-reproducible).
using LaneId = std::uint32_t;

/// The default lane: platform, coordinator, DB and everything that has not
/// asked for its own lane.
inline constexpr LaneId kMainLane = 0;

enum class ExecutionMode {
  kDeterministic,
  kParallel,
};

struct EnvConfig {
  ExecutionMode mode = ExecutionMode::kDeterministic;
  /// Worker threads (and queue shards) in kParallel; ignored in
  /// kDeterministic, which always runs single-threaded on one shard.
  unsigned worker_threads = 1;
  /// Conservative window width (sim seconds).  Safe when <= the minimum
  /// cross-actor notification delay; defaults to SimNetworkConfig's 0.2 ms
  /// base link latency.  Cross-lane events scheduled closer than this are
  /// deferred to the window boundary (counted as causality_clamps).
  double lookahead = 0.0002;
  /// Collect the actor-lane profiler (lane_profile()): per-shard busy CPU
  /// time, per-window critical-path attribution, barrier idle time,
  /// queue-depth high-water marks and exclusive-event stall time.  Off by
  /// default — sampling takes shard locks and reads the CPU clock per
  /// event/window, so it is not free.
  bool profile_lanes = false;
};

/// Aggregated queue introspection (live/tombstone/compaction stats).
struct QueueStats {
  std::size_t live = 0;
  std::size_t tombstones = 0;
  std::uint64_t compactions = 0;
};

/// Counters from the parallel executor (all zero in kDeterministic).
struct ParallelStats {
  std::uint64_t windows = 0;
  std::uint64_t exclusive_events = 0;
  std::uint64_t causality_clamps = 0;
  /// Sum over windows of the busiest worker's CPU time: the wall clock an
  /// ideally scheduled machine with >= worker_threads cores would need.
  double ideal_wall_s = 0.0;
  /// Total CPU seconds spent inside event callbacks, across all workers.
  double total_busy_s = 0.0;
  /// Events fired per worker (size == worker_threads).
  std::vector<std::uint64_t> worker_events;
};

/// One profiled queue shard: the mailbox of one worker in kParallel, the
/// single global shard in kDeterministic, plus the actor lanes folding onto
/// it (lane % shards).
struct LaneProfile {
  std::size_t shard = 0;
  std::vector<std::string> lanes;  // labels of lanes mapped onto this shard
  std::uint64_t events = 0;        // events fired on this shard
  double busy_s = 0.0;             // CPU seconds inside its callbacks
  /// CPU seconds this shard's worker sat at window join barriers while a
  /// busier shard finished its slice (kParallel only).
  double idle_s = 0.0;
  /// Windows where this shard was the busiest — the critical path: its
  /// callbacks bounded that window's wall clock.
  std::uint64_t critical_windows = 0;
  /// Busy CPU seconds accumulated while on the critical path.
  double critical_busy_s = 0.0;
  /// High-water mark of live events pending on this shard at fire time.
  std::size_t max_queue_depth = 0;
};

/// Actor-runtime profile (collected when EnvConfig::profile_lanes is set).
struct ProfilerReport {
  bool enabled = false;
  std::uint64_t windows = 0;  // profiled conservative windows (kParallel)
  std::uint64_t exclusive_events = 0;
  /// CPU seconds spent inside exclusive events — time every worker sat
  /// quiesced (multiply by worker count for stalled worker-seconds).
  double exclusive_stall_s = 0.0;
  std::vector<LaneProfile> shards;
};

class Environment {
 public:
  explicit Environment(std::uint64_t seed = 1, EnvConfig config = {});
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  ExecutionMode mode() const { return config_.mode; }
  std::size_t worker_count() const { return workers_.size(); }

  /// Registers an actor lane.  The label is for diagnostics only; the
  /// mapping onto shards is `lane % shards`.
  LaneId register_lane(std::string_view label);
  std::size_t lane_count() const;

  /// Current simulation time (seconds since start).  Inside an event
  /// callback this is the firing event's timestamp, on any thread.
  util::SimTime now() const;

  /// Schedules `fn` at absolute time `t` (>= now) on the main lane.
  EventId schedule_at(util::SimTime t, EventQueue::Callback fn);

  /// Schedules `fn` after a delay (>= 0) on the main lane.
  EventId schedule_after(util::Duration delay, EventQueue::Callback fn);

  /// Lane-addressed variants: the event fires on the worker owning `lane`.
  EventId schedule_at_on(LaneId lane, util::SimTime t, EventQueue::Callback fn);
  EventId schedule_after_on(LaneId lane, util::Duration delay,
                            EventQueue::Callback fn);

  /// Exclusive events run alone, with every worker quiesced — use for
  /// cross-actor interventions (interruption injection, global metric
  /// scrapes).  In kDeterministic they are ordinary events, keeping the
  /// legacy global order.
  EventId schedule_exclusive_at(util::SimTime t, EventQueue::Callback fn);
  EventId schedule_exclusive_after(util::Duration delay,
                                   EventQueue::Callback fn);

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id) { return queue_->cancel(id); }

  /// Runs events until the queue is empty or `limit` events fired.
  /// Returns the number of events processed.  In kParallel the limit is
  /// checked at window granularity (may overshoot by one window).
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(util::SimTime t);

  /// Fires the single earliest event; false when the queue is empty.
  /// Serial API: never call concurrently with run()/run_until().
  bool step();

  bool idle() const { return queue_->empty(); }
  std::size_t pending_events() const { return queue_->live_size(); }
  std::size_t processed_events() const { return processed_; }
  QueueStats queue_stats() const;
  const ParallelStats& parallel_stats() const { return parallel_stats_; }

  /// The actor-lane profile accumulated so far.  All-zero (enabled=false)
  /// unless EnvConfig::profile_lanes was set.  Call between runs — never
  /// concurrently with run()/run_until().
  ProfilerReport lane_profile() const;

  /// Observer invoked as (time, event-id) immediately before each event
  /// fires; used by determinism regression tests to capture fire traces.
  /// In kParallel it runs on worker threads and must be thread-safe.
  void set_fire_observer(std::function<void(util::SimTime, EventId)> observer) {
    fire_observer_ = std::move(observer);
  }

  /// Derives a named, independent RNG stream from the experiment seed.
  util::Rng fork_rng(std::string_view label) const {
    return root_rng_.fork(label);
  }

  std::uint64_t seed() const { return root_rng_.seed(); }

 private:
  struct WorkerState {
    std::uint64_t events = 0;
    double busy_s = 0.0;
    /// Busy CPU seconds of the most recent window (critical-path
    /// attribution in run_window).
    double last_window_busy = 0.0;
  };

  /// Per-shard profiler accumulators (EnvConfig::profile_lanes).  Written
  /// by workers under run_mu_ (and by the single thread in kDeterministic);
  /// read by lane_profile() between runs.
  struct ShardProfile {
    std::uint64_t events = 0;
    double busy_s = 0.0;
    double idle_s = 0.0;
    std::uint64_t critical_windows = 0;
    double critical_busy_s = 0.0;
    std::size_t max_queue_depth = 0;
  };

  bool parallel() const { return config_.mode == ExecutionMode::kParallel; }
  std::size_t shard_for_lane(LaneId lane) const {
    return static_cast<std::size_t>(lane) % queue_->shard_count();
  }

  EventId post(std::size_t shard, util::SimTime t, EventQueue::Callback fn);
  EventId post_exclusive(util::SimTime t, EventQueue::Callback fn);

  bool step_deterministic();
  bool step_parallel();
  void fire_on_caller(EventQueue::Event&& event);

  /// Core parallel loop: fires events with time < `limit`, stopping early
  /// once `max_events` have fired.  Returns the count.
  std::size_t run_parallel(double limit, std::size_t max_events);
  /// One conservative window: wakes every worker with `bound`, waits for
  /// the join barrier, returns events fired.
  std::size_t run_window(double bound);
  void worker_main(std::size_t index);

  EnvConfig config_;
  std::unique_ptr<ShardedEventQueue> queue_;
  util::Rng root_rng_;
  std::atomic<double> now_{0.0};
  std::size_t processed_ = 0;
  std::function<void(util::SimTime, EventId)> fire_observer_;

  mutable std::mutex lanes_mu_;
  std::vector<std::string> lane_labels_;

  // --- kParallel worker pool -------------------------------------------------
  std::vector<std::thread> workers_;
  std::mutex run_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  std::uint64_t generation_ = 0;
  double window_bound_ = 0.0;
  std::size_t done_count_ = 0;
  std::size_t window_events_ = 0;
  double window_max_busy_ = 0.0;
  double window_max_time_ = 0.0;
  std::vector<WorkerState> worker_states_;
  std::atomic<std::uint64_t> causality_clamps_{0};
  ParallelStats parallel_stats_;
  std::vector<ShardProfile> profile_;
  std::uint64_t profiled_windows_ = 0;
  double exclusive_stall_s_ = 0.0;
};

/// Repeating timer helper: reschedules itself every `period` until stopped.
/// Components use this for heartbeats, telemetry and checkpoint ticks.
class PeriodicTimer {
 public:
  PeriodicTimer(Environment& env, util::Duration period,
                std::function<void()> on_tick);
  /// Lane-addressed timer: ticks fire on `lane`'s worker.  With
  /// `exclusive`, ticks run as exclusive events (workers quiesced).
  PeriodicTimer(Environment& env, util::Duration period,
                std::function<void()> on_tick, LaneId lane,
                bool exclusive = false);
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arms the timer; the first tick fires one period from now (or after
  /// `initial_delay` when given).
  void start();
  void start_after(util::Duration initial_delay);

  /// Disarms the timer.  Safe to call repeatedly or from within on_tick.
  void stop();

  bool running() const { return event_ != kInvalidEvent; }
  util::Duration period() const { return period_; }

 private:
  void tick();
  EventId arm(util::Duration delay);

  Environment& env_;
  const util::Duration period_;
  std::function<void()> on_tick_;
  LaneId lane_ = kMainLane;
  bool exclusive_ = false;
  EventId event_ = kInvalidEvent;
};

}  // namespace gpunion::sim
