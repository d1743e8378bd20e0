#include "api/drf.h"

#include <algorithm>
#include <limits>

namespace gpunion::api {

ResourceVector demand_of(const workload::JobSpec& spec) {
  const auto& req = spec.requirements;
  const double gpus = std::max(1, req.gpu_count);
  return {gpus, gpus * std::max(0.0, req.gpu_memory_gb)};
}

double dominant_share(const ResourceVector& usage,
                      const ResourceVector& capacity, double weight) {
  double share = 0.0;
  if (capacity.gpus > 0) share = std::max(share, usage.gpus / capacity.gpus);
  if (capacity.memory_gb > 0)
    share = std::max(share, usage.memory_gb / capacity.memory_gb);
  if (weight <= 0) return std::numeric_limits<double>::infinity();
  return share / weight;
}

DrfQueue::DrfQueue(ResourceVector capacity) : capacity_(capacity) {}

void DrfQueue::set_weight(const std::string& tenant, double weight) {
  tenants_[tenant].weight = weight;
}

void DrfQueue::push(const std::string& tenant, Item item) {
  tenants_[tenant].queue.push_back(std::move(item));
  backlogged_.insert(tenant);
  ++total_queued_;
}

std::optional<std::pair<std::string, DrfQueue::Item>> DrfQueue::pop_next(
    const std::function<bool(const std::string&, const Item&)>& eligible) {
  // Progressive filling, one discrete job at a time: scan the backlogged
  // index (set order = name order, the deterministic tie-break) and keep
  // the strictly-smallest weighted dominant share.  O(backlogged), not
  // O(tenants ever seen).
  Tenant* best = nullptr;
  std::string best_name;
  double best_share = std::numeric_limits<double>::infinity();
  for (const std::string& name : backlogged_) {
    Tenant& tenant = tenants_[name];
    if (eligible && !eligible(name, tenant.queue.front())) continue;
    const double share = dominant_share(tenant.usage, capacity_, tenant.weight);
    if (share < best_share) {
      best = &tenant;
      best_name = name;
      best_share = share;
    }
  }
  if (best == nullptr) return std::nullopt;
  Item item = std::move(best->queue.front());
  best->queue.pop_front();
  --total_queued_;
  if (best->queue.empty()) backlogged_.erase(best_name);
  return std::make_pair(best_name, std::move(item));
}

bool DrfQueue::remove(const std::string& tenant, const std::string& job_id) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  auto& q = it->second.queue;
  for (auto qi = q.begin(); qi != q.end(); ++qi) {
    if (qi->spec.id == job_id) {
      q.erase(qi);
      --total_queued_;
      if (q.empty()) backlogged_.erase(tenant);
      return true;
    }
  }
  return false;
}

void DrfQueue::charge(const std::string& tenant, const ResourceVector& r) {
  tenants_[tenant].usage += r;
  total_usage_ += r;
}

void DrfQueue::release(const std::string& tenant, const ResourceVector& r) {
  auto& t = tenants_[tenant];
  // The aggregate subtracts what the tenant actually gives back, so a
  // clamped (over-released) tenant cannot drive the total negative.
  const ResourceVector before = t.usage;
  t.usage -= r;
  t.usage.gpus = std::max(0.0, t.usage.gpus);
  t.usage.memory_gb = std::max(0.0, t.usage.memory_gb);
  total_usage_ -= before;
  total_usage_ += t.usage;
  total_usage_.gpus = std::max(0.0, total_usage_.gpus);
  total_usage_.memory_gb = std::max(0.0, total_usage_.memory_gb);
}

double DrfQueue::dominant_share_of(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0.0;
  return dominant_share(it->second.usage, capacity_, it->second.weight);
}

const ResourceVector& DrfQueue::usage_of(const std::string& tenant) const {
  static const ResourceVector kZero;
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? kZero : it->second.usage;
}

std::size_t DrfQueue::queued(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.queue.size();
}

ResourceVector DrfQueue::head_demand(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.queue.empty()) return {};
  return it->second.queue.front().demand;
}

std::vector<std::string> DrfQueue::backlogged() const {
  return {backlogged_.begin(), backlogged_.end()};
}

}  // namespace gpunion::api
