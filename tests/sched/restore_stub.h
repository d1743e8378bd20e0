// Storage endpoint for the suites that run agents without a Platform: it
// answers a RestoreRequest with RestoreData the way the platform's storage
// endpoints do, so a migrated job's restore transfer completes.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <variant>

#include "net/sim_network.h"

namespace gpunion::sched {

/// Registers `id` on `net`: each RestoreRequest streams its bytes back to
/// the requester in the migration class; any other payload is absorbed.
inline void attach_restore_stub(net::SimNetwork& net, const net::NodeId& id) {
  net.register_endpoint(id, [&net, id](net::Message&& msg) {
    const auto* request = std::get_if<agent::RestoreRequest>(&msg.payload);
    if (request == nullptr) return;
    const std::uint64_t bytes = std::max<std::uint64_t>(1, request->bytes);
    ASSERT_TRUE(net.send(net::Message{id, request->requester,
                                      net::TrafficClass::kMigration, bytes,
                                      agent::RestoreData{request->job_id}})
                    .is_ok());
  });
}

}  // namespace gpunion::sched
