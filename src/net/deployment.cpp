#include "net/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/angles.hpp"
#include "common/rng.hpp"
#include "mobility/rotation.hpp"
#include "mobility/vehicular.hpp"
#include "mobility/walk.hpp"

namespace st::net {

namespace {

void check_geometry(const char* what, const DeploymentConfig& config,
                    unsigned n_cells) {
  if (n_cells == 0) {
    throw std::invalid_argument(std::string(what) +
                                ": need at least one cell");
  }
  if (!(config.inter_site_m > 0.0) || !(config.corridor_offset_m > 0.0)) {
    throw std::invalid_argument(std::string(what) + ": degenerate geometry");
  }
}

/// Instantiate the stations of a deployment at `positions`, with the
/// shared codebook/power/schedule recipe: one SSB slot per BS transmit
/// beam, schedules staggered by cell id.
void place_stations(Deployment& deployment,
                    const std::vector<Vec3>& positions) {
  const DeploymentConfig& config = deployment.config;
  const phy::Codebook bs_codebook =
      phy::Codebook::from_beamwidth_deg(config.bs_beamwidth_deg);

  FrameConfig frame = config.frame;
  frame.ssb_beams = static_cast<unsigned>(bs_codebook.size());

  for (std::size_t i = 0; i < positions.size(); ++i) {
    Pose pose;
    pose.position = positions[i];
    // Full-azimuth codebooks make the BS orientation immaterial; identity
    // keeps beam indices directly comparable across cells.
    FrameSchedule schedule(
        frame, static_cast<std::int64_t>(i) * config.schedule_stagger);
    deployment.base_stations.emplace_back(static_cast<CellId>(i), pose,
                                          bs_codebook, config.bs_tx_power_dbm,
                                          schedule);
  }
}

/// Candidate lists by site distance: every cell within `radius_m` of
/// `cell`, nearest first, distance ties broken by CellId.
std::vector<NeighborList> lists_by_distance(
    const std::vector<Vec3>& positions, double radius_m) {
  const double radius2 = radius_m * radius_m;
  std::vector<NeighborList> lists(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::vector<std::pair<double, CellId>> ranked;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (j == i) {
        continue;
      }
      const double dx = positions[j].x - positions[i].x;
      const double dy = positions[j].y - positions[i].y;
      const double d2 = dx * dx + dy * dy;
      if (d2 <= radius2) {
        ranked.emplace_back(d2, static_cast<CellId>(j));
      }
    }
    std::sort(ranked.begin(), ranked.end());
    lists[i].reserve(ranked.size());
    for (const auto& [d2, id] : ranked) {
      lists[i].push_back(id);
    }
  }
  return lists;
}

}  // namespace

std::string_view to_string(DeploymentShape shape) noexcept {
  switch (shape) {
    case DeploymentShape::kRow:
      return "row";
    case DeploymentShape::kGrid:
      return "grid";
    case DeploymentShape::kCorridor:
      return "corridor";
  }
  return "?";
}

Vec3 Deployment::boundary_between(CellId a, CellId b) const {
  const Vec3 pa = base_stations.at(a).pose().position;
  const Vec3 pb = base_stations.at(b).pose().position;
  return {(pa.x + pb.x) / 2.0, (pa.y + pb.y) / 2.0, (pa.z + pb.z) / 2.0};
}

Deployment make_cell_row(const DeploymentConfig& config, unsigned n_cells) {
  check_geometry("make_cell_row", config, n_cells);

  Deployment deployment;
  deployment.config = config;
  deployment.shape = DeploymentShape::kRow;

  std::vector<Vec3> positions;
  positions.reserve(n_cells);
  for (unsigned i = 0; i < n_cells; ++i) {
    positions.push_back(
        {static_cast<double>(i) * config.inter_site_m, 0.0, 0.0});
  }
  place_stations(deployment, positions);

  // The paper's rows are small (two or three cells): every other cell is
  // a candidate, in CellId order — exactly the candidate set the search
  // historically built, so row presets stay bit-identical.
  deployment.neighbor_lists.resize(n_cells);
  for (unsigned i = 0; i < n_cells; ++i) {
    for (unsigned j = 0; j < n_cells; ++j) {
      if (j != i) {
        deployment.neighbor_lists[i].push_back(static_cast<CellId>(j));
      }
    }
  }
  return deployment;
}

Deployment make_grid(const DeploymentConfig& config, unsigned n_cells,
                     unsigned cols) {
  check_geometry("make_grid", config, n_cells);
  if (cols == 0) {
    cols = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(n_cells))));
  }
  cols = std::min(cols, n_cells);

  Deployment deployment;
  deployment.config = config;
  deployment.shape = DeploymentShape::kGrid;
  deployment.grid_cols = cols;

  std::vector<Vec3> positions;
  positions.reserve(n_cells);
  for (unsigned i = 0; i < n_cells; ++i) {
    positions.push_back(
        {static_cast<double>(i % cols) * config.inter_site_m,
         static_cast<double>(i / cols) * config.inter_site_m, 0.0});
  }
  place_stations(deployment, positions);

  // Axial neighbours sit at 1.0 × inter-site, diagonals at ~1.41 ×; the
  // 1.5 × radius admits both and nothing further.
  deployment.neighbor_lists =
      lists_by_distance(positions, 1.5 * config.inter_site_m);
  return deployment;
}

Deployment make_corridor(const DeploymentConfig& config, unsigned n_cells) {
  check_geometry("make_corridor", config, n_cells);

  Deployment deployment;
  deployment.config = config;
  deployment.shape = DeploymentShape::kCorridor;

  // Even cells on one street side (y = 0), odd cells across the street
  // (y = 2 × corridor offset): the mid-street drive line at the corridor
  // offset is equidistant from every site, like the paper's 10 m range.
  std::vector<Vec3> positions;
  positions.reserve(n_cells);
  for (unsigned i = 0; i < n_cells; ++i) {
    positions.push_back(
        {static_cast<double>(i) * config.inter_site_m,
         (i % 2 == 1) ? 2.0 * config.corridor_offset_m : 0.0, 0.0});
  }
  place_stations(deployment, positions);

  // The two sites ahead and the two behind along the street: i±1 sits at
  // ~1.05 × inter-site (across the street), i±2 at exactly 2 ×.
  deployment.neighbor_lists =
      lists_by_distance(positions, 2.5 * config.inter_site_m);
  return deployment;
}

std::pair<CellId, CellId> central_pair(const Deployment& deployment) {
  const unsigned n = static_cast<unsigned>(deployment.base_stations.size());
  if (n < 2) {
    throw std::invalid_argument("central_pair: need at least two cells");
  }
  if (deployment.shape == DeploymentShape::kGrid && deployment.grid_cols >= 2) {
    const unsigned cols = deployment.grid_cols;
    const unsigned rows = (n + cols - 1) / cols;
    unsigned row = rows / 2;
    // The last row may be partial; step back until the row holds an
    // adjacent pair.
    while (row > 0 && row * cols + 1 >= n) {
      --row;
    }
    const unsigned row_len = std::min(cols, n - row * cols);
    const unsigned col = std::min((row_len - 1) / 2, row_len - 2);
    const unsigned a = row * cols + col;
    return {static_cast<CellId>(a), static_cast<CellId>(a + 1)};
  }
  const unsigned a = std::min((n - 1) / 2, n - 2);
  return {static_cast<CellId>(a), static_cast<CellId>(a + 1)};
}

std::shared_ptr<const mobility::MobilityModel> make_edge_walk(
    const Deployment& deployment, double speed_mps, sim::Duration horizon,
    std::uint64_t seed) {
  mobility::WalkConfig walk;
  // Start inside cell 0's side of the boundary and walk towards cell 1,
  // staying on the corridor (the paper's cell-edge walk at 10 m range).
  walk.start = {deployment.boundary_between(0, 1).x - 20.0,
                deployment.config.corridor_offset_m, 0.0};
  walk.heading_rad = 0.0;  // +x, across the boundary
  walk.speed_mps = speed_mps;
  return std::make_shared<mobility::LinearWalk>(walk, horizon, seed);
}

std::shared_ptr<const mobility::MobilityModel> make_edge_rotation(
    const Deployment& deployment, double rate_deg_per_s) {
  mobility::RotationConfig rotation;
  // In the overlap region on the serving side of the boundary: the
  // device keeps enough serving margin to stay connected while rotating
  // (the paper's rotation runs end with a handover, not with the serving
  // link dying every revolution).
  rotation.position = {deployment.boundary_between(0, 1).x - 8.0,
                       deployment.config.corridor_offset_m, 0.0};
  rotation.rate_rad_per_s = deg_to_rad(rate_deg_per_s);
  return std::make_shared<mobility::DeviceRotation>(rotation);
}

std::shared_ptr<const mobility::MobilityModel> make_drive(
    const Deployment& deployment, double speed_mps) {
  const double last_x = deployment.base_stations.back().pose().position.x;
  const double margin = 0.4 * deployment.config.inter_site_m;
  mobility::VehicularConfig vehicle;
  vehicle.route = {
      {-margin, deployment.config.corridor_offset_m, 0.0},
      {last_x + margin, deployment.config.corridor_offset_m, 0.0}};
  vehicle.speed_mps = speed_mps;
  return std::make_shared<mobility::VehicularRoute>(vehicle);
}

std::shared_ptr<const mobility::MobilityModel> make_edge_ping_pong(
    const Deployment& deployment, double speed_mps, double amplitude_m,
    sim::Duration horizon) {
  if (!(speed_mps > 0.0) || !(amplitude_m > 0.0)) {
    throw std::invalid_argument(
        "make_edge_ping_pong: speed and amplitude must be positive");
  }
  const auto [a, b] = central_pair(deployment);
  const Vec3 pa = deployment.base_stations.at(a).pose().position;
  const Vec3 pb = deployment.base_stations.at(b).pose().position;
  const Vec3 mid = deployment.boundary_between(a, b);

  // Shuttle along the pair's inter-site axis, on the corridor line of
  // that axis (the corridor offset to the side, like the walk/drive
  // trajectories). For a corridor deployment the pair sits across the
  // street, so the shuttle runs along the street instead: the
  // boundary_between midpoint is already on the mid-street drive line.
  double ux = 1.0;
  double uy = 0.0;
  double off_x = 0.0;
  double off_y = 0.0;
  if (deployment.shape != DeploymentShape::kCorridor) {
    const double dx = pb.x - pa.x;
    const double dy = pb.y - pa.y;
    const double len = std::hypot(dx, dy);
    ux = dx / len;
    uy = dy / len;
    off_x = -uy * deployment.config.corridor_offset_m;
    off_y = ux * deployment.config.corridor_offset_m;
  }
  const Vec3 near_end{mid.x - amplitude_m * ux + off_x,
                      mid.y - amplitude_m * uy + off_y, 0.0};
  const Vec3 far_end{mid.x + amplitude_m * ux + off_x,
                     mid.y + amplitude_m * uy + off_y, 0.0};

  // Enough legs to cover the horizon at `speed_mps` (and at least one).
  const double horizon_s = horizon.ms() / 1000.0;
  const auto legs = static_cast<std::size_t>(
      std::ceil(speed_mps * horizon_s / (2.0 * amplitude_m))) + 1;
  mobility::VehicularConfig shuttle;
  shuttle.route.reserve(legs + 1);
  for (std::size_t leg = 0; leg <= legs; ++leg) {
    shuttle.route.push_back(leg % 2 == 0 ? near_end : far_end);
  }
  shuttle.speed_mps = speed_mps;
  return std::make_shared<mobility::VehicularRoute>(shuttle);
}

}  // namespace st::net
