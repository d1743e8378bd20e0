#include "sim/fault_injector.h"

#include "util/logging.h"

namespace gpunion::sim {

bool FaultInjector::inject_now(const std::string& name) {
  auto it = faults_.find(name);
  if (it == faults_.end()) {
    ++misfires_;
    return false;
  }
  ++fired_[name];
  ++total_fired_;
  GPUNION_DLOG("fault") << "injecting " << name;
  it->second();
  return true;
}

void FaultInjector::inject_at(util::SimTime t, std::string name) {
  env_.schedule_at(
      t, [this, name = std::move(name)] { (void)inject_now(name); });
}

void FaultInjector::inject_after(util::Duration delay, std::string name) {
  env_.schedule_after(
      delay, [this, name = std::move(name)] { (void)inject_now(name); });
}

}  // namespace gpunion::sim
