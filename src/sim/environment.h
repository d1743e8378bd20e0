// Discrete-event simulation environment.
//
// Every GPUnion component (agents, coordinator, network, workloads) receives
// an Environment& and uses it for *all* time, scheduling and randomness.
// Events live in one EventQueue drained on the calling thread in (time,
// insertion order), so running the same configuration with the same seed
// reproduces an experiment event-for-event — every invariant harness
// (GPUNION_INVARIANT_SEED) replays bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/time.h"

namespace gpunion::sim {

/// The one execution mode.  Kept (with EnvConfig) only so existing callers
/// that spell out `EnvConfig{ExecutionMode::kDeterministic}` still compile.
enum class ExecutionMode {
  kDeterministic,
};

struct EnvConfig {
  ExecutionMode mode = ExecutionMode::kDeterministic;
};

/// Queue introspection (live/tombstone/compaction stats).
struct QueueStats {
  std::size_t live = 0;
  std::size_t tombstones = 0;
  std::uint64_t compactions = 0;
};

class Environment {
 public:
  explicit Environment(std::uint64_t seed = 1, EnvConfig config = {});

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  /// Current simulation time (seconds since start).  Inside an event
  /// callback this is the firing event's timestamp.
  util::SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now).
  EventId schedule_at(util::SimTime t, EventQueue::Callback fn);

  /// Schedules `fn` after a delay (>= 0).
  EventId schedule_after(util::Duration delay, EventQueue::Callback fn);

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is empty or `limit` events fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(util::SimTime t);

  /// Fires the single earliest event; false when the queue is empty.
  bool step();

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.live_size(); }
  std::size_t processed_events() const { return processed_; }
  QueueStats queue_stats() const;

  /// Observer invoked as (time, event-id) immediately before each event
  /// fires; used by determinism regression tests to capture fire traces.
  void set_fire_observer(std::function<void(util::SimTime, EventId)> observer) {
    fire_observer_ = std::move(observer);
  }

  /// Derives a named, independent RNG stream from the experiment seed.
  util::Rng fork_rng(std::string_view label) const {
    return root_rng_.fork(label);
  }

  std::uint64_t seed() const { return root_rng_.seed(); }

 private:
  EventQueue queue_;
  util::Rng root_rng_;
  util::SimTime now_ = 0.0;
  std::size_t processed_ = 0;
  std::function<void(util::SimTime, EventId)> fire_observer_;
};

/// Repeating timer helper: reschedules itself every `period` until stopped.
/// Components use this for heartbeats, telemetry and checkpoint ticks.
class PeriodicTimer {
 public:
  /// Throws std::invalid_argument unless `period` > 0.
  PeriodicTimer(Environment& env, util::Duration period,
                std::function<void()> on_tick);
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

  Environment& env_;
  const util::Duration period_;
  std::function<void()> on_tick_;
  EventId event_ = kInvalidEvent;
};

}  // namespace gpunion::sim
