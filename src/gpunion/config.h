// Campus deployment configuration.
//
// paper_campus() reproduces the §4 deployment: 8 single-RTX-3090
// workstations, one 8x RTX 4090 server, one 2x A100 server, one 4x A6000
// server, a CPU-only coordinator, plus a campus NAS for checkpoints —
// owned by four research groups of very different means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agent/provider_agent.h"
#include "api/api_server.h"
#include "db/sharded_database.h"
#include "hw/node.h"
#include "net/sim_network.h"
#include "sched/coordinator.h"

namespace gpunion {

struct CampusNode {
  hw::NodeSpec spec;
  std::string owner_group;
};

struct StorageNodeConfig {
  std::string id;
  std::uint64_t capacity_bytes = 32ULL << 40;  // 32 TiB NAS
};

struct CampusConfig {
  std::vector<CampusNode> nodes;
  std::vector<StorageNodeConfig> storage;
  sched::CoordinatorConfig coordinator;
  agent::AgentConfig agent_defaults;
  net::SimNetworkConfig network;
  storage::CheckpointStoreConfig checkpoint_store;
  /// System-database model: writer shard count, write-behind ledgering and
  /// its flush cadence.
  db::DbConfig db;
  /// Monitoring scrape interval into the system database.
  util::Duration scrape_interval = 60.0;
  /// Tenant-facing request plane (api::ApiServer).  Disabled by default:
  /// existing harnesses drive Coordinator::submit directly; campuses that
  /// front tenants set enabled = true and get per-tenant queues, quotas,
  /// DRF draining and token-bucket backpressure in front of the core.
  api::ApiConfig api;
};

/// The paper's 11-server fleet (§4), groups: vision (8x3090 workstations
/// split with nlp), mlsys (8x4090 server), bio (2xA100), nlp (4xA6000);
/// the "theory" group owns no GPUs at all (the access-barrier population).
CampusConfig paper_campus();

/// Research-group names used by paper_campus(), in a stable order.
const std::vector<std::string>& paper_groups();

}  // namespace gpunion
