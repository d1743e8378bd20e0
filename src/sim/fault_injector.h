// Unified fault injection for crash-recovery experiments.
//
// A registry of *named* crash points: components (platform, federation)
// register callbacks under well-known names, and harnesses trigger them by
// name at chosen simulation times.  Triggers are ordinary events in the
// global (time, insertion) order, so a crash may touch any component's state
// and every GPUNION_INVARIANT_SEED harness replays bit-identically with
// crashes enabled.
//
// sim/ cannot depend on gpunion/ (layering), so the injector knows nothing
// about coordinators or gateways: it is a generic named-callback registry
// plus scheduling and accounting.  The platform layer registers the
// concrete crash actions (see gpunion::Platform::register_crash_points).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/environment.h"
#include "util/time.h"

namespace gpunion::sim {

/// Well-known crash-point names (the PR's crash-point taxonomy).  The
/// platform registers these; harnesses iterate kAllCrashPoints to exercise
/// every one.  Names are registry keys, nothing more — components may
/// register additional points.
inline constexpr std::string_view kCrashPreAck = "crash.pre_ack";
inline constexpr std::string_view kCrashPostAckPreFlush =
    "crash.post_ack_pre_flush";
inline constexpr std::string_view kCrashMidGroupCommit =
    "crash.mid_group_commit";
inline constexpr std::string_view kCrashMidForward = "crash.mid_forward";

class FaultInjector {
 public:
  using Fault = std::function<void()>;

  explicit FaultInjector(Environment& env) : env_(env) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers (or replaces) the action behind a named fault.
  void register_fault(std::string name, Fault action) {
    faults_[std::move(name)] = std::move(action);
  }

  bool has(const std::string& name) const { return faults_.contains(name); }

  /// Registered fault names, sorted (deterministic iteration for harnesses).
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(faults_.size());
    for (const auto& [name, action] : faults_) out.push_back(name);
    return out;
  }

  /// Fires a registered fault immediately.  Returns false for unknown
  /// names.
  bool inject_now(const std::string& name);

  /// Schedules a fault as an event at / after the given time.
  /// Unknown-at-fire-time names are counted in misfires() and skipped.
  void inject_at(util::SimTime t, std::string name);
  void inject_after(util::Duration delay, std::string name);

  /// Times a named fault has fired.
  std::uint64_t fired(const std::string& name) const {
    auto it = fired_.find(name);
    return it == fired_.end() ? 0 : it->second;
  }
  std::uint64_t total_fired() const { return total_fired_; }
  std::uint64_t misfires() const { return misfires_; }

 private:
  Environment& env_;
  std::map<std::string, Fault> faults_;
  std::map<std::string, std::uint64_t> fired_;
  std::uint64_t total_fired_ = 0;
  std::uint64_t misfires_ = 0;
};

}  // namespace gpunion::sim
