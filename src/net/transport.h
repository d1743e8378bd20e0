// Abstract message transport.
//
// Agents and the coordinator are written against this interface; the
// simulation binds them to SimNetwork (latency + bandwidth + accounting),
// and tests may substitute their own implementation (e.g. one that drops
// messages).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/message.h"
#include "util/status.h"

namespace gpunion::net {

/// Receives messages addressed to one endpoint.
using MessageHandler = std::function<void(Message&&)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Attaches `handler` as the receiver for `id`.  Replaces any previous
  /// handler (a node re-joining after departure re-attaches).
  virtual void register_endpoint(const NodeId& id, MessageHandler handler) = 0;

  /// Lane-aware registration: deliveries to `id` fire on the actor lane
  /// `lane` (a sim::LaneId) so the endpoint's handler always runs on the
  /// worker owning that actor.  Transports without an execution model
  /// ignore the lane.
  virtual void register_endpoint(const NodeId& id, MessageHandler handler,
                                 std::uint32_t lane) {
    (void)lane;
    register_endpoint(id, std::move(handler));
  }

  /// Detaches the endpoint; in-flight messages to it are dropped.
  virtual void unregister_endpoint(const NodeId& id) = 0;

  /// Queues `msg` for delivery.  Returns kNotFound if the destination has
  /// never been registered; delivery itself is best-effort (the destination
  /// may unregister, partition or drop while the message is in flight —
  /// exactly the volatility GPUnion is designed around).
  virtual util::Status send(Message msg) = 0;
};

}  // namespace gpunion::net
