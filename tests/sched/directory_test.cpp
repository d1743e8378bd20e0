#include "sched/directory.h"

#include <gtest/gtest.h>

namespace gpunion::sched {
namespace {

NodeInfo make_node(const std::string& id, int gpus = 4) {
  NodeInfo info;
  info.machine_id = id;
  info.hostname = "host-" + id;
  info.gpu_count = gpus;
  info.free_gpus = gpus;
  info.status = db::NodeStatus::kActive;
  info.accepting = true;
  return info;
}

TEST(DirectoryTest, UpsertAndFind) {
  Directory directory;
  directory.upsert(make_node("m-1"));
  EXPECT_NE(directory.find("m-1"), nullptr);
  EXPECT_EQ(directory.find("ghost"), nullptr);
  EXPECT_EQ(directory.size(), 1u);
}

TEST(DirectoryTest, UpsertReplaces) {
  Directory directory;
  directory.upsert(make_node("m-1", 4));
  NodeInfo updated = make_node("m-1", 8);
  directory.upsert(updated);
  EXPECT_EQ(directory.find("m-1")->gpu_count, 8);
  EXPECT_EQ(directory.size(), 1u);
}

TEST(DirectoryTest, SchedulableFiltersStatusAndAccepting) {
  Directory directory;
  directory.upsert(make_node("m-1"));
  NodeInfo paused = make_node("m-2");
  paused.accepting = false;
  directory.upsert(paused);
  NodeInfo gone = make_node("m-3");
  gone.status = db::NodeStatus::kUnavailable;
  directory.upsert(gone);
  const auto schedulable = directory.schedulable();
  ASSERT_EQ(schedulable.size(), 1u);
  EXPECT_EQ(schedulable[0]->machine_id, "m-1");
  EXPECT_EQ(directory.all().size(), 3u);
}

TEST(DirectoryTest, ReserveReleaseClamped) {
  Directory directory;
  directory.upsert(make_node("m-1", 4));
  directory.reserve_gpus("m-1", 3);
  EXPECT_EQ(directory.find("m-1")->free_gpus, 1);
  directory.reserve_gpus("m-1", 5);  // clamped at 0
  EXPECT_EQ(directory.find("m-1")->free_gpus, 0);
  directory.release_gpus("m-1", 100);  // clamped at capacity
  EXPECT_EQ(directory.find("m-1")->free_gpus, 4);
  directory.reserve_gpus("ghost", 1);  // no-op
}

TEST(DirectoryTest, TotalGpus) {
  Directory directory;
  directory.upsert(make_node("m-1", 4));
  directory.upsert(make_node("m-2", 8));
  EXPECT_EQ(directory.total_gpus(), 12);
}

TEST(DirectoryTest, AllIsSortedByMachineId) {
  Directory directory;
  directory.upsert(make_node("m-b"));
  directory.upsert(make_node("m-a"));
  const auto all = directory.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->machine_id, "m-a");
  EXPECT_EQ(all[1]->machine_id, "m-b");
}

TEST(DirectoryTest, SlotReserveOpensSharedGpuAndReleaseReturnsIt) {
  Directory directory;
  NodeInfo info = make_node("m-1", 2);
  info.seats_per_gpu[hw::Tenancy::kFractional] = 4;
  info.share_memory_cap_gb = 6.0;
  directory.upsert(info);
  // First slot opens a whole GPU in shared mode.
  EXPECT_TRUE(directory.reserve_seat("m-1", hw::Tenancy::kFractional));
  EXPECT_EQ(directory.find("m-1")->free_gpus, 1);
  EXPECT_EQ(directory.find("m-1")->free_seats[hw::Tenancy::kFractional], 3);
  // Subsequent slots drain the shared GPU before opening another.
  EXPECT_TRUE(directory.reserve_seat("m-1", hw::Tenancy::kFractional));
  EXPECT_EQ(directory.find("m-1")->free_gpus, 1);
  EXPECT_EQ(directory.find("m-1")->free_seats[hw::Tenancy::kFractional], 2);
  directory.release_seat("m-1", hw::Tenancy::kFractional);
  EXPECT_EQ(directory.find("m-1")->free_seats[hw::Tenancy::kFractional], 3);
  // Sharing disabled or unknown node: no slot.
  NodeInfo unshared = make_node("m-2", 1);
  unshared.seats_per_gpu[hw::Tenancy::kFractional] = 1;
  directory.upsert(unshared);
  EXPECT_FALSE(directory.reserve_seat("m-2", hw::Tenancy::kFractional));
  EXPECT_FALSE(directory.reserve_seat("ghost", hw::Tenancy::kFractional));
}

TEST(DirectoryTest, SlotReserveDeniedWhenEverythingTaken) {
  Directory directory;
  NodeInfo info = make_node("m-1", 1);
  info.seats_per_gpu[hw::Tenancy::kFractional] = 2;
  directory.upsert(info);
  EXPECT_TRUE(directory.reserve_seat("m-1", hw::Tenancy::kFractional));
  EXPECT_TRUE(directory.reserve_seat("m-1", hw::Tenancy::kFractional));
  // 2 slots on 1 GPU: the third tenant is denied (oversubscription).
  EXPECT_FALSE(directory.reserve_seat("m-1", hw::Tenancy::kFractional));
}

/// ClusterView queries at compute capability 7.0.
std::vector<const NodeInfo*> whole(Directory& directory, int gpus,
                                   double memory_gb,
                                   const std::string* group = nullptr) {
  return directory.view().candidates(
      {hw::Tenancy::kWhole, gpus, memory_gb, 7.0, group});
}

std::vector<const NodeInfo*> fractional(Directory& directory,
                                        double memory_gb) {
  return directory.view().candidates(
      {hw::Tenancy::kFractional, 1, memory_gb, 7.0, nullptr});
}

NodeInfo view_node(const std::string& id, int free, double mem, double cc,
                   const std::string& group) {
  NodeInfo info = make_node(id, 8);
  info.free_gpus = free;
  info.gpu_memory_gb = mem;
  info.compute_capability = cc;
  info.owner_group = group;
  return info;
}

TEST(ClusterViewTest, WholeGpuCandidatesFilterAndAreSorted) {
  Directory directory;
  directory.upsert(view_node("m-c", 4, 24.0, 8.6, "vision"));
  directory.upsert(view_node("m-a", 2, 48.0, 8.6, "nlp"));
  directory.upsert(view_node("m-b", 0, 80.0, 8.0, "bio"));  // nothing free
  NodeInfo paused = view_node("m-d", 8, 24.0, 8.6, "vision");
  paused.accepting = false;
  directory.upsert(paused);

  auto candidates = whole(directory, 1, 8.0);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0]->machine_id, "m-a");  // sorted by id
  EXPECT_EQ(candidates[1]->machine_id, "m-c");

  // Capacity bucket: 3 GPUs needed -> only m-c.
  candidates = whole(directory, 3, 8.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->machine_id, "m-c");

  // VRAM filter.
  candidates = whole(directory, 1, 40.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->machine_id, "m-a");

  // Group restriction uses the per-group index.
  const std::string group = "nlp";
  candidates = whole(directory, 1, 8.0, &group);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->machine_id, "m-a");
}

TEST(ClusterViewTest, DirtyInvalidationTracksMutations) {
  Directory directory;
  directory.upsert(view_node("m-1", 2, 24.0, 8.6, "vision"));
  auto candidates = whole(directory, 2, 8.0);
  ASSERT_EQ(candidates.size(), 1u);

  // Reservation moves the node out of the >=2 bucket.
  directory.reserve_gpus("m-1", 1);
  EXPECT_TRUE(whole(directory, 2, 8.0).empty());
  ASSERT_EQ(whole(directory, 1, 8.0).size(), 1u);

  // Mutation through the non-const find() pointer is picked up too.
  directory.find("m-1")->accepting = false;
  EXPECT_TRUE(whole(directory, 1, 8.0).empty());
  directory.find("m-1")->accepting = true;
  directory.release_gpus("m-1", 1);
  EXPECT_EQ(whole(directory, 2, 8.0).size(), 1u);
  EXPECT_EQ(directory.view().total_free_gpus(), 2);
}

TEST(DirectoryTest, CapacitySummaryTracksMutationsIncrementally) {
  Directory directory;
  NodeInfo sharing = make_node("m-1", 4);
  sharing.seats_per_gpu[hw::Tenancy::kFractional] = 4;
  directory.upsert(sharing);
  directory.upsert(make_node("m-2", 2));

  CapacitySummary summary = directory.capacity_summary();
  EXPECT_EQ(summary.nodes, 2);
  EXPECT_EQ(summary.schedulable_nodes, 2);
  EXPECT_EQ(summary.total_gpus, 6);
  EXPECT_EQ(summary.free_gpus, 6);
  EXPECT_EQ(summary.free_seats[hw::Tenancy::kFractional], 0);

  // Reservations, slots, and status flips all land in the summary.
  directory.reserve_gpus("m-2", 2);
  // Opens a GPU in shared mode.
  ASSERT_TRUE(directory.reserve_seat("m-1", hw::Tenancy::kFractional));
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.free_gpus, 3);
  EXPECT_EQ(summary.free_seats[hw::Tenancy::kFractional], 3);

  directory.find("m-1")->status = db::NodeStatus::kDeparted;
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.nodes, 2);           // still in the directory
  EXPECT_EQ(summary.schedulable_nodes, 1);
  EXPECT_EQ(summary.total_gpus, 6);      // hardware does not vanish
  EXPECT_EQ(summary.free_gpus, 0);       // but is not schedulable capacity
  EXPECT_EQ(summary.free_seats[hw::Tenancy::kFractional], 0);

  // Re-registering with different hardware keeps the GPU total exact.
  directory.upsert(make_node("m-2", 8));
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.total_gpus, 12);
  EXPECT_EQ(summary.free_gpus, 8);
  EXPECT_EQ(directory.total_gpus(), 12);
  // Hardware envelope: monotone maxima over everything ever registered.
  EXPECT_EQ(summary.max_node_gpus, 8);
  NodeInfo big = make_node("m-3", 2);
  big.gpu_memory_gb = 80.0;
  big.compute_capability = 9.0;
  directory.upsert(big);
  summary = directory.capacity_summary();
  EXPECT_EQ(summary.max_node_gpus, 8);
  EXPECT_DOUBLE_EQ(summary.max_gpu_memory_gb, 80.0);
  EXPECT_DOUBLE_EQ(summary.max_compute_capability, 9.0);
}

TEST(ClusterViewTest, FractionalCandidatesHonourCapAndCapacity) {
  Directory directory;
  NodeInfo sharing = view_node("m-share", 1, 24.0, 8.6, "vision");
  sharing.seats_per_gpu[hw::Tenancy::kFractional] = 4;
  sharing.share_memory_cap_gb = 6.0;
  directory.upsert(sharing);
  NodeInfo unshared = view_node("m-solo", 4, 24.0, 8.6, "vision");
  unshared.seats_per_gpu[hw::Tenancy::kFractional] = 1;
  directory.upsert(unshared);

  auto candidates = fractional(directory, 4.0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0]->machine_id, "m-share");

  // Per-tenant memory cap enforced.
  EXPECT_TRUE(fractional(directory, 8.0).empty());

  // Fully booked: no free GPU, no free slot.
  directory.find("m-share")->free_gpus = 0;
  directory.find("m-share")->free_seats[hw::Tenancy::kFractional] = 0;
  EXPECT_TRUE(fractional(directory, 4.0).empty());
  // A slot freed on a shared GPU re-admits the node.
  directory.release_seat("m-share", hw::Tenancy::kFractional);
  ASSERT_EQ(fractional(directory, 4.0).size(), 1u);
}

}  // namespace
}  // namespace gpunion::sched
