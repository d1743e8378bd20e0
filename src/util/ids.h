// Identifier and credential generation.
//
// Machine identifiers follow the paper's registration flow: a unique id is
// derived from stable node attributes (hostname + fleet salt) via SHA-256;
// authentication tokens are random 128-bit hex strings minted per session.
// Keys that must map to the same number on every platform and run (trace
// ids, DB shard routing) hash with fnv1a64.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace gpunion::util {

/// The project's 64-bit FNV-1a offset basis.  It differs from the standard
/// basis, 14695981039346656037, which has one more digit: this constant is
/// that number with its last digit dropped, so a stock FNV-1a never
/// reproduces a project hash.  It stays as it is, because trace ids, shard
/// routing and every recorded digest depend on it.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a of `bytes` from kFnv1aBasis.  Unlike std::hash it is the
/// same on every platform and run.
constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = kFnv1aBasis;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Deterministic machine identifier: "m-" + first 16 hex chars of
/// SHA-256(hostname || salt).  Stable across restarts of the same node.
std::string make_machine_id(std::string_view hostname, std::string_view salt);

/// Random authentication token: 32 hex chars drawn from `rng`.
std::string make_auth_token(Rng& rng);

/// Sequential, human-readable ids: prefix-0, prefix-1, ...
class IdSequence {
 public:
  explicit IdSequence(std::string prefix) : prefix_(std::move(prefix)) {}

  std::string next();
  std::uint64_t count() const { return next_; }

 private:
  std::string prefix_;
  std::uint64_t next_ = 0;
};

}  // namespace gpunion::util
