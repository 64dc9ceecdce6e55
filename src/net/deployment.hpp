// Deployment builders: the paper's topologies plus dense multi-cell
// layouts.
//
// Fig. 1: a mobile at the edge of Cell A, at its boundary with Cell B.
// The testbed used one mobile node and up to three nodes operating as
// base stations; `make_cell_row` produces those two- and three-cell
// layouts. Beyond the paper, `make_grid` builds an urban cell grid and
// `make_corridor` a street corridor with cells alternating street sides
// — the dense regimes where the mobile must pick *which* neighbour to
// silently track.
//
// Every deployment carries explicit per-cell NeighborLists (the handover
// candidate set of each serving cell) instead of the historical implicit
// "everyone else" rule; protocols read them through
// RadioEnvironment::neighbour_cells(). Scripted mobile trajectories for
// the evaluation scenarios (walk across a boundary, rotation at the
// edge, vehicular drive past the cells, cell-edge ping-pong) live here
// too, because they are defined relative to deployment geometry.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/vec.hpp"
#include "mobility/model.hpp"
#include "net/basestation.hpp"
#include "net/ids.hpp"
#include "net/timing.hpp"
#include "phy/codebook.hpp"

namespace st::net {

/// Geometry family of a deployment. kRow is the paper's layout; kGrid
/// and kCorridor are the dense multi-cell extensions. A 1×N grid and a
/// row place cells identically (the row is the degenerate grid), but
/// they rank neighbours differently: the row keeps the legacy
/// "every other cell" candidate set, the grid restricts candidates to
/// adjacent sites.
enum class DeploymentShape { kRow, kGrid, kCorridor };

[[nodiscard]] std::string_view to_string(DeploymentShape shape) noexcept;

struct DeploymentConfig {
  /// Distance between adjacent base stations along the x axis [m].
  /// 60 m puts the aligned-beam SNR at the two-cell boundary right at the
  /// data threshold — a genuine, distance-driven cell edge.
  double inter_site_m = 60.0;
  /// Perpendicular distance from the BS line to the mobile's corridor [m]
  /// (paper: experiments at 10 m from the base station).
  double corridor_offset_m = 10.0;
  /// BS transmit beamwidth; the SSB burst sweeps one slot per beam.
  double bs_beamwidth_deg = 45.0;
  double bs_tx_power_dbm = 13.0;
  FrameConfig frame{};
  /// Cells run unsynchronised schedules; each cell i is offset by
  /// i * stagger within the SSB period.
  sim::Duration schedule_stagger = sim::Duration::milliseconds(7);
};

struct Deployment {
  std::vector<BaseStation> base_stations;
  DeploymentConfig config;
  DeploymentShape shape = DeploymentShape::kRow;
  /// Grid columns (kGrid only; 0 otherwise). Cell ids are row-major:
  /// cell i sits at column i % grid_cols, row i / grid_cols.
  unsigned grid_cols = 0;
  /// Per-cell handover candidate lists, indexed by CellId. Always
  /// populated by the builders; never empty for a multi-cell deployment.
  std::vector<NeighborList> neighbor_lists;

  /// Midpoint between the sites of cells `a` and `b` — the equal-path-loss
  /// boundary of any two equal-power cells. Throws std::out_of_range on an
  /// unknown cell id.
  [[nodiscard]] Vec3 boundary_between(CellId a, CellId b) const;
};

/// `n_cells` base stations in a row on the x axis: cell i at
/// (i * inter_site, 0), all facing the corridor (+y). Base stations get
/// staggered, unsynchronised frame schedules. Every cell lists every
/// other cell as a candidate, in CellId order — the paper's layouts are
/// small enough that all cells are mutual neighbours.
[[nodiscard]] Deployment make_cell_row(const DeploymentConfig& config,
                                       unsigned n_cells);

/// Urban grid: `n_cells` sites row-major over `cols` columns (the last
/// row may be partial), spaced `inter_site_m` on both axes. `cols == 0`
/// picks the squarest grid (ceil(sqrt(n_cells))). Each cell lists the
/// sites within 1.5 × inter-site distance (axial and diagonal
/// neighbours), nearest first, ties by CellId.
[[nodiscard]] Deployment make_grid(const DeploymentConfig& config,
                                   unsigned n_cells, unsigned cols = 0);

/// Street corridor: cells along x every `inter_site_m`, alternating
/// street sides (even cells at y = 0, odd at y = 2 × corridor offset, so
/// the mid-street drive line is the corridor offset from every site).
/// Each cell lists the sites within 2.5 × inter-site distance (the two
/// preceding and following street lamps), nearest first, ties by CellId.
[[nodiscard]] Deployment make_corridor(const DeploymentConfig& config,
                                       unsigned n_cells);

// ---- Scripted mobile trajectories for the evaluation scenarios ---------

/// Human walk at the cell edge: starts on the corridor near the boundary
/// between cells 0 and 1, on cell 0's side, and walks towards cell 1's
/// coverage at `speed_mps` (paper: 1.4 m/s). `seed` fixes the gait jitter.
[[nodiscard]] std::shared_ptr<const mobility::MobilityModel> make_edge_walk(
    const Deployment& deployment, double speed_mps, sim::Duration horizon,
    std::uint64_t seed);

/// Device rotation at the cell edge: stationary on the corridor at the
/// boundary between cells 0 and 1, spinning at `rate_deg_per_s`
/// (paper: 120 °/s).
[[nodiscard]] std::shared_ptr<const mobility::MobilityModel> make_edge_rotation(
    const Deployment& deployment, double rate_deg_per_s);

/// Vehicular drive along the corridor past all cells at `speed_mps`
/// (paper: 20 mph). Starts before cell 0 and ends past the last cell.
[[nodiscard]] std::shared_ptr<const mobility::MobilityModel> make_drive(
    const Deployment& deployment, double speed_mps);

/// Cell-edge ping-pong: the mobile shuttles back and forth across the
/// boundary between the deployment's two most central adjacent cells,
/// `amplitude_m` to each side along the inter-site axis on the corridor
/// line, at `speed_mps`, for at least `horizon`. The adversarial input
/// for handover hysteresis / penalty timers: without them every crossing
/// hands the mobile straight back.
[[nodiscard]] std::shared_ptr<const mobility::MobilityModel>
make_edge_ping_pong(const Deployment& deployment, double speed_mps,
                    double amplitude_m, sim::Duration horizon);

/// The cell pair make_edge_ping_pong shuttles across: the two adjacent
/// sites nearest the deployment's centroid (grid: the middle row's middle
/// pair; row/corridor: the middle pair).
[[nodiscard]] std::pair<CellId, CellId> central_pair(
    const Deployment& deployment);

}  // namespace st::net
