#include "container/container.h"

#include <gtest/gtest.h>

namespace gpunion::container {
namespace {

ContainerConfig test_config() {
  ContainerConfig config;
  config.image = make_image("pytorch", "2.3", "base", 1);
  config.limits.gpu_indices = {0, 2};
  return config;
}

TEST(ContainerTest, LifecycleHappyPath) {
  Container c("ctr-1", test_config(), 0.0);
  EXPECT_EQ(c.state(), ContainerState::kCreated);
  ASSERT_TRUE(c.start(1.0).is_ok());
  EXPECT_EQ(c.state(), ContainerState::kRunning);
  ASSERT_TRUE(c.begin_checkpoint(2.0).is_ok());
  EXPECT_EQ(c.state(), ContainerState::kCheckpointing);
  ASSERT_TRUE(c.end_checkpoint(3.0).is_ok());
  EXPECT_EQ(c.state(), ContainerState::kRunning);
  ASSERT_TRUE(c.exit(4.0).is_ok());
  EXPECT_EQ(c.state(), ContainerState::kExited);
  EXPECT_FALSE(c.live());
  EXPECT_DOUBLE_EQ(c.finished_at(), 4.0);
}

TEST(ContainerTest, InvalidTransitionsRejected) {
  Container c("ctr-1", test_config(), 0.0);
  EXPECT_FALSE(c.begin_checkpoint(1.0).is_ok()); // not running
  ASSERT_TRUE(c.start(1.0).is_ok());
  EXPECT_FALSE(c.start(2.0).is_ok());            // double start
  EXPECT_FALSE(c.end_checkpoint(2.0).is_ok());   // no checkpoint open
}

TEST(ContainerTest, KillFromAnyLiveState) {
  for (int scenario = 0; scenario < 3; ++scenario) {
    Container c("ctr", test_config(), 0.0);
    if (scenario >= 1) {
      ASSERT_TRUE(c.start(1.0).is_ok());
    }
    if (scenario == 2) {
      ASSERT_TRUE(c.begin_checkpoint(2.0).is_ok());
    }
    EXPECT_TRUE(c.kill(5.0).is_ok()) << "scenario " << scenario;
    EXPECT_EQ(c.state(), ContainerState::kKilled);
  }
}

TEST(ContainerTest, KillAfterExitRejected) {
  Container c("ctr", test_config(), 0.0);
  ASSERT_TRUE(c.start(1.0).is_ok());
  ASSERT_TRUE(c.exit(2.0).is_ok());
  EXPECT_EQ(c.kill(3.0).code(), util::StatusCode::kFailedPrecondition);
}

TEST(ContainerTest, VisibleDevicesMask) {
  Container c("ctr", test_config(), 0.0);
  EXPECT_EQ(c.visible_devices(), "0,2");
}

TEST(ContainerTest, EventsRecorded) {
  Container c("ctr", test_config(), 0.0);
  ASSERT_TRUE(c.start(1.0).is_ok());
  ASSERT_TRUE(c.kill(2.0).is_ok());
  ASSERT_EQ(c.events().size(), 3u);
  EXPECT_EQ(c.events()[0].what, "created");
  EXPECT_EQ(c.events()[1].what, "started");
  EXPECT_EQ(c.events()[2].what, "killed");
  EXPECT_DOUBLE_EQ(c.events()[2].at, 2.0);
}

TEST(ContainerTest, StateNames) {
  EXPECT_EQ(container_state_name(ContainerState::kRunning), "running");
  EXPECT_EQ(container_state_name(ContainerState::kKilled), "killed");
}

}  // namespace
}  // namespace gpunion::container
