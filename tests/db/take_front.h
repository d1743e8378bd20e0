// The scheduling pass's pop, for the queue tests: read the pending queue in
// order and take its front request.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "db/database.h"

namespace gpunion::db {

/// The front request, taken off the queue; nullopt when it is empty.
inline std::optional<PendingRequest> take_front(Database& database) {
  std::vector<PendingRequest> queued = database.pending_requests();
  if (queued.empty()) return std::nullopt;
  EXPECT_TRUE(database.take_request(queued.front().job_id));
  return queued.front();
}

}  // namespace gpunion::db
