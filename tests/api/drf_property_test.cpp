// Property tests for the DRF queue in isolation (no platform, no sim):
// progressive filling over random tenant populations must satisfy the
// headline guarantees of Ghodsi et al. (NSDI'11) in the discrete-job
// setting the request plane actually runs:
//
//   * share-ratio invariance — scaling every demand AND the capacity by a
//     common factor leaves the grant sequence bit-identical;
//   * strategy-proofness spot checks — uniformly inflating a tenant's
//     demands never wins it more grants than asking honestly;
//   * degenerate single-tenant case — DRF collapses to plain FIFO.
//
// Seeds derive from GPUNION_INVARIANT_SEED like every other harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "api/drf.h"
#include "util/rng.h"

namespace gpunion::api {
namespace {

struct Scenario {
  int tenants = 0;
  ResourceVector capacity;
  double factor = 1.0;
  // Per tenant: weight and per-job demands, in submission order.
  std::vector<double> weights;
  std::vector<std::vector<ResourceVector>> demands;
};

Scenario random_scenario(util::Rng& rng) {
  Scenario s;
  s.tenants = static_cast<int>(rng.uniform_int(2, 6));
  s.capacity = {static_cast<double>(rng.uniform_int(4, 16)),
                static_cast<double>(rng.uniform_int(32, 256))};
  s.factor = rng.bernoulli(0.5) ? 1.0 : 2.0;
  for (int t = 0; t < s.tenants; ++t) {
    s.weights.push_back(rng.bernoulli(0.25) ? 2.0 : 1.0);
    std::vector<ResourceVector> jobs;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int j = 0; j < n; ++j) {
      jobs.push_back({static_cast<double>(rng.uniform_int(1, 4)),
                      static_cast<double>(rng.uniform_int(4, 40))});
    }
    s.demands.push_back(std::move(jobs));
  }
  return s;
}

std::string tenant_name(int index) { return "p" + std::to_string(index); }

DrfQueue build_queue(const Scenario& s, double demand_scale = 1.0,
                     double capacity_scale = 1.0) {
  DrfQueue queue({s.capacity.gpus * capacity_scale,
                  s.capacity.memory_gb * capacity_scale});
  for (int t = 0; t < s.tenants; ++t) {
    queue.set_weight(tenant_name(t), s.weights[static_cast<std::size_t>(t)]);
    int j = 0;
    for (const ResourceVector& d :
         s.demands[static_cast<std::size_t>(t)]) {
      DrfQueue::Item item;
      item.spec.id = tenant_name(t) + "-job-" + std::to_string(j++);
      item.demand = {d.gpus * demand_scale, d.memory_gb * demand_scale};
      queue.push(tenant_name(t), std::move(item));
    }
  }
  return queue;
}

/// Progressive filling exactly as ApiServer::drain gates it: grant the
/// min-share tenant's head while it fits capacity x factor; stop when no
/// queued head fits.  Returns (tenant, job id) in grant order.
std::vector<std::pair<std::string, std::string>> fill(DrfQueue& queue,
                                                      double factor) {
  std::vector<std::pair<std::string, std::string>> grants;
  while (auto next = queue.pop_next(
             [&](const std::string&, const DrfQueue::Item& item) {
               return queue.total_usage().fits(item.demand, queue.capacity(),
                                               factor);
             })) {
    queue.charge(next->first, next->second.demand);
    grants.emplace_back(next->first, next->second.spec.id);
  }
  return grants;
}

std::uint64_t base_seed() {
  const char* pinned = std::getenv("GPUNION_INVARIANT_SEED");
  return pinned != nullptr ? std::strtoull(pinned, nullptr, 10) : 1;
}

// Dominant shares are ratios: a uniform change of units (double every
// demand and the capacity) must not change a single granting decision.
// Scale factors are powers of two so the scaling is exact in binary
// floating point — an arbitrary factor perturbs u/c in the last ulp and
// spuriously flips share ties.
TEST(DrfPropertyTest, ShareRatioInvarianceUnderDemandScaling) {
  const std::uint64_t base = base_seed();
  for (std::uint64_t seed = base; seed < base + 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    const Scenario s = random_scenario(rng);
    const double alpha = std::ldexp(1.0, static_cast<int>(rng.uniform_int(-2, 3)));
    DrfQueue honest = build_queue(s);
    DrfQueue scaled = build_queue(s, /*demand_scale=*/alpha,
                                  /*capacity_scale=*/alpha);
    EXPECT_EQ(fill(honest, s.factor), fill(scaled, s.factor));
  }
}

// Strategy-proofness: a tenant that uniformly inflates its demands (lies
// that every job is k-times bigger) never ends up with MORE granted jobs
// than it gets by asking honestly.
TEST(DrfPropertyTest, InflatingDemandNeverWinsMoreGrants) {
  const std::uint64_t base = base_seed();
  for (std::uint64_t seed = base; seed < base + 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    Scenario s = random_scenario(rng);
    const int liar = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.tenants) - 1));
    const double inflation = rng.uniform(1.5, 4.0);

    DrfQueue honest_queue = build_queue(s);
    const auto honest = fill(honest_queue, s.factor);

    for (ResourceVector& d : s.demands[static_cast<std::size_t>(liar)]) {
      d.gpus *= inflation;
      d.memory_gb *= inflation;
    }
    DrfQueue lying_queue = build_queue(s);
    const auto lying = fill(lying_queue, s.factor);

    auto grants_of = [&](const auto& grants) {
      std::size_t n = 0;
      for (const auto& [tenant, id] : grants) {
        if (tenant == tenant_name(liar)) ++n;
      }
      return n;
    };
    EXPECT_LE(grants_of(lying), grants_of(honest))
        << tenant_name(liar) << " gained by inflating demands x"
        << inflation;
  }
}

// With one tenant there is nothing to balance: DRF must hand back the
// submission order unchanged, i.e. plain FIFO.
TEST(DrfPropertyTest, SingleTenantDegeneratesToFifo) {
  const std::uint64_t base = base_seed();
  for (std::uint64_t seed = base; seed < base + 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    DrfQueue queue({1e18, 1e18});
    std::vector<std::string> order;
    const int n = static_cast<int>(rng.uniform_int(1, 50));
    for (int j = 0; j < n; ++j) {
      DrfQueue::Item item;
      item.spec.id = "solo-" + std::to_string(j);
      item.demand = {static_cast<double>(rng.uniform_int(1, 4)),
                     static_cast<double>(rng.uniform_int(4, 40))};
      order.push_back(item.spec.id);
      queue.push("solo", std::move(item));
    }
    std::vector<std::string> popped;
    for (const auto& [tenant, id] : fill(queue, 1.0)) {
      EXPECT_EQ(tenant, "solo");
      popped.push_back(id);
    }
    EXPECT_EQ(popped, order);
  }
}

// Ties break by tenant name: two identical runs grant identically (the
// determinism the golden traces lean on).
TEST(DrfPropertyTest, GrantOrderIsDeterministic) {
  const std::uint64_t base = base_seed();
  for (std::uint64_t seed = base; seed < base + 25; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    const Scenario s = random_scenario(rng);
    DrfQueue a = build_queue(s);
    DrfQueue b = build_queue(s);
    EXPECT_EQ(fill(a, s.factor), fill(b, s.factor));
  }
}

// Bookkeeping safety: release never drives usage negative, and removing a
// queued job by id leaves the rest of the queue intact.
TEST(DrfPropertyTest, ChargeReleaseAndRemoveAreSafe) {
  DrfQueue queue({8, 64});
  queue.charge("a", {2, 16});
  queue.release("a", {5, 50});  // over-release clamps at zero
  EXPECT_EQ(queue.usage_of("a").gpus, 0.0);
  EXPECT_EQ(queue.usage_of("a").memory_gb, 0.0);

  for (int j = 0; j < 3; ++j) {
    DrfQueue::Item item;
    item.spec.id = "r-" + std::to_string(j);
    item.demand = {1, 8};
    queue.push("a", std::move(item));
  }
  EXPECT_FALSE(queue.remove("a", "r-9"));
  EXPECT_TRUE(queue.remove("a", "r-1"));
  EXPECT_FALSE(queue.remove("b", "r-0"));  // wrong tenant
  auto grants = fill(queue, 1.0);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].second, "r-0");
  EXPECT_EQ(grants[1].second, "r-2");
}

}  // namespace
}  // namespace gpunion::api
