#include "net/deployment.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"

namespace st::net {
namespace {

using namespace st::sim::literals;
using sim::Time;

TEST(Deployment, CellRowGeometry) {
  DeploymentConfig config;
  config.inter_site_m = 60.0;
  const Deployment d = make_cell_row(config, 3);
  ASSERT_EQ(d.base_stations.size(), 3U);
  EXPECT_EQ(d.base_stations[0].pose().position.x, 0.0);
  EXPECT_EQ(d.base_stations[1].pose().position.x, 60.0);
  EXPECT_EQ(d.base_stations[2].pose().position.x, 120.0);
  EXPECT_DOUBLE_EQ(d.boundary_between(0, 1).x, 30.0);
  EXPECT_EQ(d.shape, DeploymentShape::kRow);
  EXPECT_EQ(d.grid_cols, 0U);
}

TEST(Deployment, CellIdsSequential) {
  const Deployment d = make_cell_row(DeploymentConfig{}, 3);
  for (CellId i = 0; i < 3; ++i) {
    EXPECT_EQ(d.base_stations[i].id(), i);
  }
}

TEST(Deployment, SsbBeamsMatchCodebook) {
  DeploymentConfig config;
  config.bs_beamwidth_deg = 45.0;  // -> 8 beams
  const Deployment d = make_cell_row(config, 2);
  for (const auto& bs : d.base_stations) {
    EXPECT_EQ(bs.schedule().config().ssb_beams, bs.codebook().size());
    EXPECT_EQ(bs.codebook().size(), 8U);
  }
}

TEST(Deployment, SchedulesAreStaggered) {
  DeploymentConfig config;
  config.schedule_stagger = 7_ms;
  const Deployment d = make_cell_row(config, 3);
  EXPECT_EQ(d.base_stations[0].schedule().offset(), sim::Duration{});
  EXPECT_EQ(d.base_stations[1].schedule().offset(), 7_ms);
  EXPECT_EQ(d.base_stations[2].schedule().offset(), 14_ms);
}

TEST(Deployment, InvalidConfigThrows) {
  EXPECT_THROW(make_cell_row(DeploymentConfig{}, 0), std::invalid_argument);
  DeploymentConfig bad;
  bad.inter_site_m = 0.0;
  EXPECT_THROW(make_cell_row(bad, 2), std::invalid_argument);
  bad = DeploymentConfig{};
  bad.corridor_offset_m = -1.0;
  EXPECT_THROW(make_cell_row(bad, 2), std::invalid_argument);
}

TEST(Trajectories, EdgeWalkCrossesBoundary) {
  const Deployment d = make_cell_row(DeploymentConfig{}, 2);
  const auto walk = make_edge_walk(d, 1.4, 30_s, 1);
  const Pose start = walk->pose_at(Time::zero());
  EXPECT_LT(start.position.x, d.boundary_between(0, 1).x);
  EXPECT_NEAR(start.position.y, d.config.corridor_offset_m, 0.1);
  const Pose end = walk->pose_at(Time::zero() + 30_s);
  EXPECT_GT(end.position.x, d.boundary_between(0, 1).x);
}

TEST(Trajectories, EdgeRotationSitsInOverlapRegion) {
  const Deployment d = make_cell_row(DeploymentConfig{}, 2);
  const auto rot = make_edge_rotation(d, 120.0);
  const Pose p = rot->pose_at(Time::zero() + 5_s);
  // On the serving side of the boundary, within the overlap region.
  EXPECT_LT(p.position.x, d.boundary_between(0, 1).x);
  EXPECT_GT(p.position.x, d.boundary_between(0, 1).x - 15.0);
  EXPECT_DOUBLE_EQ(p.position.y, d.config.corridor_offset_m);
  EXPECT_EQ(rot->pose_at(Time::zero()).position, p.position);
  // Rotates a full turn every 3 s at 120 deg/s.
  EXPECT_NE(rot->pose_at(Time::zero() + 1_s).orientation.yaw(),
            rot->pose_at(Time::zero()).orientation.yaw());
}

TEST(Deployment, RowNeighborListsAreEveryOtherCellInIdOrder) {
  const Deployment d = make_cell_row(DeploymentConfig{}, 3);
  ASSERT_EQ(d.neighbor_lists.size(), 3U);
  EXPECT_EQ(d.neighbor_lists[0], (NeighborList{1, 2}));
  EXPECT_EQ(d.neighbor_lists[1], (NeighborList{0, 2}));
  EXPECT_EQ(d.neighbor_lists[2], (NeighborList{0, 1}));
}

TEST(Deployment, BoundaryBetweenIsTheSiteMidpoint) {
  DeploymentConfig config;
  config.inter_site_m = 60.0;
  const Deployment d = make_grid(config, 9, 3);
  const Vec3 mid = d.boundary_between(0, 4);  // (0,0) and (60,60)
  EXPECT_DOUBLE_EQ(mid.x, 30.0);
  EXPECT_DOUBLE_EQ(mid.y, 30.0);
  EXPECT_THROW(static_cast<void>(d.boundary_between(0, 9)),
               std::out_of_range);
}

TEST(Deployment, GridGeometryIsRowMajor) {
  DeploymentConfig config;
  config.inter_site_m = 60.0;
  const Deployment d = make_grid(config, 9, 3);
  ASSERT_EQ(d.base_stations.size(), 9U);
  EXPECT_EQ(d.shape, DeploymentShape::kGrid);
  EXPECT_EQ(d.grid_cols, 3U);
  // Cell 5 is row 1, column 2.
  EXPECT_DOUBLE_EQ(d.base_stations[5].pose().position.x, 120.0);
  EXPECT_DOUBLE_EQ(d.base_stations[5].pose().position.y, 60.0);
  // cols == 0 picks the squarest grid: ceil(sqrt(9)) == 3.
  EXPECT_EQ(make_grid(config, 9).grid_cols, 3U);
  // cols is clamped to n_cells.
  EXPECT_EQ(make_grid(config, 2, 5).grid_cols, 2U);
}

TEST(Deployment, GridNeighborsAreAdjacentSitesNearestFirst) {
  const Deployment d = make_grid(DeploymentConfig{}, 9, 3);
  // Corner cell 0: axial 1, 3 then diagonal 4 — nothing further.
  EXPECT_EQ(d.neighbor_lists[0], (NeighborList{1, 3, 4}));
  // Centre cell 4 reaches all eight surrounding sites, axials first.
  EXPECT_EQ(d.neighbor_lists[4], (NeighborList{1, 3, 5, 7, 0, 2, 6, 8}));
  // Edge cell 1: axials 0, 2, 4 then diagonals 3, 5.
  EXPECT_EQ(d.neighbor_lists[1], (NeighborList{0, 2, 4, 3, 5}));
}

TEST(Deployment, OneRowGridPlacesCellsLikeTheRow) {
  DeploymentConfig config;
  config.inter_site_m = 60.0;
  const Deployment row = make_cell_row(config, 2);
  const Deployment grid = make_grid(config, 2, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(grid.base_stations[i].pose().position.x,
              row.base_stations[i].pose().position.x);
    EXPECT_EQ(grid.base_stations[i].pose().position.y,
              row.base_stations[i].pose().position.y);
  }
  // Same candidate sets here too; the shapes only diverge beyond ~2 cells
  // apart, where the grid stops listing distant sites.
  EXPECT_EQ(grid.neighbor_lists, row.neighbor_lists);
}

TEST(Deployment, CorridorAlternatesStreetSides) {
  DeploymentConfig config;
  config.inter_site_m = 60.0;
  config.corridor_offset_m = 10.0;
  const Deployment d = make_corridor(config, 4);
  EXPECT_EQ(d.shape, DeploymentShape::kCorridor);
  EXPECT_DOUBLE_EQ(d.base_stations[0].pose().position.y, 0.0);
  EXPECT_DOUBLE_EQ(d.base_stations[1].pose().position.y, 20.0);
  EXPECT_DOUBLE_EQ(d.base_stations[2].pose().position.y, 0.0);
  EXPECT_DOUBLE_EQ(d.base_stations[3].pose().position.y, 20.0);
  // The mid-street drive line (y = corridor offset) is equidistant from
  // both street sides.
  EXPECT_DOUBLE_EQ(d.boundary_between(0, 1).y, config.corridor_offset_m);
}

TEST(Deployment, CorridorNeighborsAreTwoLampsEachWay) {
  const Deployment d = make_corridor(DeploymentConfig{}, 6);
  // Cell 2 sees i±1 (across the street, nearest) then i±2 (same side).
  EXPECT_EQ(d.neighbor_lists[2], (NeighborList{1, 3, 0, 4}));
  // End cell only looks forward.
  EXPECT_EQ(d.neighbor_lists[0], (NeighborList{1, 2}));
  // Cell 5 too far from cells 0..2.
  EXPECT_EQ(d.neighbor_lists[5], (NeighborList{4, 3}));
}

TEST(Deployment, NewShapesValidateGeometry) {
  EXPECT_THROW(make_grid(DeploymentConfig{}, 0), std::invalid_argument);
  EXPECT_THROW(make_corridor(DeploymentConfig{}, 0), std::invalid_argument);
  DeploymentConfig bad;
  bad.inter_site_m = -1.0;
  EXPECT_THROW(make_grid(bad, 4), std::invalid_argument);
  EXPECT_THROW(make_corridor(bad, 4), std::invalid_argument);
}

TEST(Deployment, CentralPairPicksTheMiddleAdjacentCells) {
  // Row of 3: the middle pair is (1, 2) by the (n-1)/2 rule.
  EXPECT_EQ(central_pair(make_cell_row(DeploymentConfig{}, 3)),
            (std::pair<CellId, CellId>{1, 2}));
  EXPECT_EQ(central_pair(make_cell_row(DeploymentConfig{}, 2)),
            (std::pair<CellId, CellId>{0, 1}));
  // 3x3 grid: the middle row is cells 3..5 and its middle pair is (4, 5).
  EXPECT_EQ(central_pair(make_grid(DeploymentConfig{}, 9, 3)),
            (std::pair<CellId, CellId>{4, 5}));
  // Partial last row: 7 cells over 3 columns -> rows 0..2, row 2 holds
  // only cell 6, so central_pair steps back to row 1 -> (4, 5).
  EXPECT_EQ(central_pair(make_grid(DeploymentConfig{}, 7, 3)),
            (std::pair<CellId, CellId>{4, 5}));
  EXPECT_EQ(central_pair(make_corridor(DeploymentConfig{}, 6)),
            (std::pair<CellId, CellId>{2, 3}));
  EXPECT_THROW(static_cast<void>(central_pair(make_cell_row(
                   DeploymentConfig{}, 1))),
               std::invalid_argument);
}

TEST(Trajectories, EdgePingPongShuttlesAcrossTheCentralBoundary) {
  DeploymentConfig config;
  config.inter_site_m = 60.0;
  const Deployment d = make_grid(config, 9, 3);
  const auto [a, b] = central_pair(d);
  const Vec3 mid = d.boundary_between(a, b);
  const auto shuttle = make_edge_ping_pong(d, 5.0, 30.0, 20_s);
  const Pose start = shuttle->pose_at(Time::zero());
  // Starts amplitude short of the midpoint along the pair axis (+x for
  // the middle grid row), offset onto the corridor line.
  EXPECT_NEAR(start.position.x, mid.x - 30.0, 1e-9);
  // Crosses the boundary: 30 m at 5 m/s puts it at the midpoint by 6 s
  // and past it at 8 s.
  EXPECT_GT(shuttle->pose_at(Time::zero() + 8_s).position.x, mid.x);
  // And shuttles back: one 60 m leg takes 12 s, so at 20 s it is 40 m
  // into the return leg — back on the near side.
  EXPECT_LT(shuttle->pose_at(Time::zero() + 20_s).position.x, mid.x);
  EXPECT_THROW(make_edge_ping_pong(d, 0.0, 30.0, 20_s),
               std::invalid_argument);
  EXPECT_THROW(make_edge_ping_pong(d, 5.0, -1.0, 20_s),
               std::invalid_argument);
}

TEST(Trajectories, DrivePassesAllCells) {
  const Deployment d = make_cell_row(DeploymentConfig{}, 3);
  const auto drive = make_drive(d, mph_to_mps(20.0));
  const Pose start = drive->pose_at(Time::zero());
  EXPECT_LT(start.position.x, 0.0);
  // Drive long enough: passes the last cell.
  const Pose end = drive->pose_at(Time::zero() + 60_s);
  EXPECT_GT(end.position.x, d.base_stations.back().pose().position.x);
}

}  // namespace
}  // namespace st::net
