#include "sim/environment.h"

#include <cassert>
#include <stdexcept>

namespace gpunion::sim {

Environment::Environment(std::uint64_t seed, EnvConfig) : root_rng_(seed) {}

EventId Environment::schedule_at(util::SimTime t, EventQueue::Callback fn) {
  assert(t >= now_ && "cannot schedule into the past");
  return queue_.push(t, std::move(fn));
}

EventId Environment::schedule_after(util::Duration delay,
                                    EventQueue::Callback fn) {
  assert(delay >= 0 && "negative delay");
  return queue_.push(now_ + delay, std::move(fn));
}

std::size_t Environment::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::size_t Environment::run_until(util::SimTime t) {
  assert(t >= now_);
  std::size_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= t) {
    step();
    ++n;
  }
  now_ = t;
  return n;
}

bool Environment::step() {
  if (queue_.empty()) return false;
  EventQueue::Event event = queue_.pop();
  assert(event.time >= now_);
  now_ = event.time;
  ++processed_;
  if (fire_observer_) fire_observer_(event.time, event.id);
  event.fn();
  return true;
}

QueueStats Environment::queue_stats() const {
  return QueueStats{queue_.live_size(), queue_.tombstones(),
                    queue_.compactions()};
}

PeriodicTimer::PeriodicTimer(Environment& env, util::Duration period,
                             std::function<void()> on_tick)
    : env_(env), period_(period), on_tick_(std::move(on_tick)) {
  // Checked in every build type: a zero period would re-arm at now()
  // forever, so run_until could never return.
  if (!(period_ > 0)) {
    throw std::invalid_argument("PeriodicTimer requires a positive period");
  }
  assert(on_tick_ && "PeriodicTimer requires a callback");
}

void PeriodicTimer::start() { start_after(period_); }

void PeriodicTimer::start_after(util::Duration initial_delay) {
  stop();
  event_ = env_.schedule_after(initial_delay, [this] { tick(); });
}

void PeriodicTimer::stop() {
  if (event_ != kInvalidEvent) {
    env_.cancel(event_);
    event_ = kInvalidEvent;
  }
}

void PeriodicTimer::tick() {
  // Re-arm before the callback so on_tick may call stop() to end the cycle.
  event_ = env_.schedule_after(period_, [this] { tick(); });
  on_tick_();
}

}  // namespace gpunion::sim
