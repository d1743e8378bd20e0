// Message envelope for the campus network model.
//
// The network moves sized envelopes between named endpoints, modelling
// latency, link serialization and loss, and accounting bytes per traffic
// class (the Network-Traffic-Analysis experiment in §4 of the paper); it
// never reads the payload.  A payload is one of the protocol structs of
// agent/proto.h and federation/proto.h, and its type is the message kind:
// each receiver dispatches on it with one std::visit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "agent/proto.h"
#include "federation/proto.h"

namespace gpunion::net {

/// Stable endpoint identifier (machine id or "coordinator").
using NodeId = std::string;

/// Traffic classes accounted separately, mirroring the paper's analysis of
/// control vs checkpoint/backup traffic on the campus LAN.
enum class TrafficClass {
  kControl = 0,     // registration, dispatch, kill, ack
  kHeartbeat,       // periodic liveness beacons
  kTelemetry,       // NVML metric reports
  kCheckpoint,      // ALC backup deltas
  kMigration,       // checkpoint restore transfers to the new node
  kImage,           // container image pulls
  kUserData,        // dataset/output movement
  kFederation,      // inter-campus WAN: digests, forwards, shipped checkpoints
  kClassCount,
};

std::string_view traffic_class_name(TrafficClass c);

/// Every message either protocol sends.
using Payload = std::variant<
    // Agent <-> coordinator, and agent <-> storage / image registry.
    agent::RegisterRequest, agent::RegisterResponse, agent::Heartbeat,
    agent::TelemetryReport, agent::DispatchRequest, agent::DispatchResult,
    agent::JobStarted, agent::KillJobCommand, agent::JobCompleted,
    agent::CheckpointNotice, agent::DepartureNotice, agent::ReturnNotice,
    agent::KillSwitchNotice, agent::JobKilledAck, agent::RestoreRequest,
    agent::RestoreData, agent::CheckpointData, agent::ImagePullRequest,
    agent::ImageData,
    // Gateway <-> gateway over the inter-campus WAN.
    federation::ForwardRequest, federation::ForwardAccept,
    federation::ForwardRefuse, federation::JobTransfer,
    federation::RemoteOutcome, federation::JobTransferAck,
    federation::DirectoryGossip, federation::DirectoryPullRequest,
    federation::DirectoryPullResponse>;

/// A std::visit visitor made of one lambda per payload type, e.g.
/// `std::visit(Overloaded{[](const agent::Heartbeat&) {...},
/// [](const auto&) {...}}, msg.payload)`.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

struct Message {
  NodeId from;
  NodeId to;
  TrafficClass traffic_class = TrafficClass::kControl;
  std::uint64_t size_bytes = 0;
  Payload payload;
};

}  // namespace gpunion::net
