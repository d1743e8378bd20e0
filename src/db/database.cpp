#include "db/database.h"

#include <algorithm>

namespace gpunion::db {

util::Status SystemDatabase::upsert_node(NodeRecord record) {
  count_op();
  if (record.machine_id.empty()) {
    return util::invalid_argument_error("node record requires a machine id");
  }
  nodes_[record.machine_id] = std::move(record);
  return util::Status();
}

util::StatusOr<NodeRecord> SystemDatabase::node(
    const std::string& machine_id) const {
  count_op();
  auto it = nodes_.find(machine_id);
  if (it == nodes_.end()) {
    return util::not_found_error("node " + machine_id + " not registered");
  }
  return it->second;
}

util::Status SystemDatabase::set_node_status(const std::string& machine_id,
                                             NodeStatus s) {
  count_op();
  auto it = nodes_.find(machine_id);
  if (it == nodes_.end()) {
    return util::not_found_error("node " + machine_id + " not registered");
  }
  it->second.status = s;
  return util::Status();
}

std::size_t SystemDatabase::touch_heartbeats(
    const std::vector<std::pair<std::string, util::SimTime>>& batch) {
  count_op();
  std::size_t applied = 0;
  for (const auto& [machine_id, at] : batch) {
    auto it = nodes_.find(machine_id);
    if (it == nodes_.end()) continue;
    it->second.last_heartbeat = std::max(it->second.last_heartbeat, at);
    ++applied;
  }
  return applied;
}

std::vector<NodeRecord> SystemDatabase::nodes() const {
  count_op();
  std::vector<NodeRecord> out;
  out.reserve(nodes_.size());
  for (const auto& [id, record] : nodes_) out.push_back(record);
  return out;
}

std::uint64_t SystemDatabase::open_allocation(const std::string& job_id,
                                              const std::string& machine_id,
                                              std::vector<int> gpu_indices,
                                              util::SimTime at,
                                              double gpu_fraction,
                                              bool interactive) {
  count_op();
  AllocationRecord record;
  record.allocation_id = next_allocation_id_++;
  record.job_id = job_id;
  record.machine_id = machine_id;
  record.gpu_indices = std::move(gpu_indices);
  record.gpu_fraction = gpu_fraction;
  record.interactive = interactive;
  record.started_at = at;
  ledger_index_[record.allocation_id] = ledger_.size();
  ledger_.push_back(std::move(record));
  return ledger_.back().allocation_id;
}

util::Status SystemDatabase::close_allocation(std::uint64_t allocation_id,
                                              AllocationOutcome outcome,
                                              util::SimTime at) {
  count_op();
  auto it = ledger_index_.find(allocation_id);
  if (it == ledger_index_.end()) {
    return util::not_found_error("allocation " +
                                 std::to_string(allocation_id));
  }
  AllocationRecord& record = ledger_[it->second];
  if (record.outcome != AllocationOutcome::kRunning) {
    return util::failed_precondition_error(
        "allocation " + std::to_string(allocation_id) + " already closed");
  }
  record.outcome = outcome;
  record.ended_at = at;
  return util::Status();
}

std::vector<AllocationRecord> SystemDatabase::allocations_for_job(
    const std::string& job_id) const {
  count_op();
  std::vector<AllocationRecord> out;
  for (const auto& record : ledger_) {
    if (record.job_id == job_id) out.push_back(record);
  }
  return out;
}

void SystemDatabase::enqueue_request(PendingRequest request) {
  count_op();
  queue_[request.priority].push_back(std::move(request));
}

void SystemDatabase::enqueue_request_front(PendingRequest request) {
  count_op();
  queue_[request.priority].push_front(std::move(request));
}

std::vector<PendingRequest> SystemDatabase::pending_requests() const {
  count_op();
  std::vector<PendingRequest> out;
  for (const auto& [priority, fifo] : queue_) {
    out.insert(out.end(), fifo.begin(), fifo.end());
  }
  return out;
}

bool SystemDatabase::take_request(const std::string& job_id) {
  return remove_request(job_id);
}

bool SystemDatabase::remove_request(const std::string& job_id) {
  count_op();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    auto& fifo = it->second;
    for (auto rit = fifo.begin(); rit != fifo.end(); ++rit) {
      if (rit->job_id == job_id) {
        fifo.erase(rit);
        if (fifo.empty()) queue_.erase(it);
        return true;
      }
    }
  }
  return false;
}

std::size_t SystemDatabase::queue_depth() const {
  count_op();
  std::size_t n = 0;
  for (const auto& [priority, fifo] : queue_) n += fifo.size();
  return n;
}

void SystemDatabase::record_provenance(JobProvenance provenance) {
  count_op();
  provenance_index_[provenance.job_id] = provenance_log_.size();
  provenance_log_.push_back(std::move(provenance));
}

const JobProvenance* SystemDatabase::provenance(
    const std::string& job_id) const {
  count_op();
  auto it = provenance_index_.find(job_id);
  return it == provenance_index_.end() ? nullptr
                                       : &provenance_log_[it->second];
}

void SystemDatabase::put_job_state(JobStateRecord record) {
  job_states_[record.spec.id] = std::move(record);
}

bool SystemDatabase::erase_job_state(const std::string& job_id) {
  return job_states_.erase(job_id) > 0;
}

const JobStateRecord* SystemDatabase::job_state(
    const std::string& job_id) const {
  auto it = job_states_.find(job_id);
  return it == job_states_.end() ? nullptr : &it->second;
}

std::vector<JobStateRecord> SystemDatabase::job_states() const {
  std::vector<JobStateRecord> out;
  out.reserve(job_states_.size());
  for (const auto& [id, record] : job_states_) out.push_back(record);
  return out;
}

void SystemDatabase::put_journal(const std::string& key,
                                 std::vector<std::int64_t> values) {
  journal_[key] = std::move(values);
}

const std::vector<std::int64_t>* SystemDatabase::journal(
    const std::string& key) const {
  auto it = journal_.find(key);
  return it == journal_.end() ? nullptr : &it->second;
}

void SystemDatabase::put_forward_state(ForwardStateRecord record) {
  forward_states_[record.spec.id] = std::move(record);
}

bool SystemDatabase::erase_forward_state(const std::string& job_id) {
  return forward_states_.erase(job_id) > 0;
}

std::vector<ForwardStateRecord> SystemDatabase::forward_states() const {
  std::vector<ForwardStateRecord> out;
  out.reserve(forward_states_.size());
  for (const auto& [id, record] : forward_states_) out.push_back(record);
  return out;
}

void SystemDatabase::put_handoff(HandoffRecord record) {
  handoffs_[record.job_id] = std::move(record);
}

std::vector<HandoffRecord> SystemDatabase::handoffs() const {
  std::vector<HandoffRecord> out;
  out.reserve(handoffs_.size());
  for (const auto& [id, record] : handoffs_) out.push_back(record);
  return out;
}

}  // namespace gpunion::db
