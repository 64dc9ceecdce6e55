#include "net/basestation.hpp"

#include <gtest/gtest.h>

namespace st::net {
namespace {

using namespace st::sim::literals;

BaseStation make_bs() {
  FrameConfig frame;
  frame.ssb_beams = 8;
  Pose pose;
  pose.position = {5.0, 0.0, 0.0};
  return BaseStation(3, pose, phy::Codebook::from_beamwidth_deg(45.0), 13.0,
                     FrameSchedule(frame, 7_ms));
}

TEST(BaseStation, AccessorsReflectConstruction) {
  const BaseStation bs = make_bs();
  EXPECT_EQ(bs.id(), 3U);
  EXPECT_EQ(bs.pose().position, (Vec3{5.0, 0.0, 0.0}));
  EXPECT_EQ(bs.codebook().size(), 8U);
  EXPECT_DOUBLE_EQ(bs.tx_power_dbm(), 13.0);
  EXPECT_EQ(bs.schedule().offset(), 7_ms);
}

TEST(BaseStation, ServingBeamDefaultsToZero) {
  const BaseStation bs = make_bs();
  EXPECT_EQ(bs.serving_tx_beam(), 0U);
}

TEST(BaseStation, ServingBeamMutable) {
  BaseStation bs = make_bs();
  bs.set_serving_tx_beam(5);
  EXPECT_EQ(bs.serving_tx_beam(), 5U);
}

}  // namespace
}  // namespace st::net
