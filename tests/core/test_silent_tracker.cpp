#include "core/silent_tracker.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "mobility/walk.hpp"
#include "net/test_helpers.hpp"
#include "sim/simulator.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;
using sim::Time;

/// A world where the UE walks from cell 0's area across the boundary into
/// cell 1 — clean channel so outcomes are reproducible statements about
/// the protocol, not the weather.
struct TrackerWorld {
  explicit TrackerWorld(double speed_mps = 3.0, double beamwidth = 20.0,
                        std::uint64_t seed = 1)
      : env(test::make_two_cell_env(walker(speed_mps), beamwidth, seed)) {}
  explicit TrackerWorld(net::RadioEnvironment environment)
      : env(std::move(environment)) {}

  static std::shared_ptr<const mobility::MobilityModel> walker(
      double speed_mps) {
    mobility::WalkConfig walk;
    walk.start = {10.0, 10.0, 0.0};
    walk.heading_rad = 0.0;
    walk.speed_mps = speed_mps;
    walk.sway_amplitude_m = 0.0;
    walk.yaw_jitter_stddev_rad = 0.0;
    return std::make_shared<mobility::LinearWalk>(
        walk, sim::Duration::milliseconds(120'000), 9);
  }

  void start(ProtocolConfig config = {},
             BeamPolicyKind policy_kind = BeamPolicyKind::kSilentTracker) {
    const auto best = env.ground_truth_best_pair(0, Time::zero());
    env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);
    policy = make_beam_policy({.kind = policy_kind});
    tracker = std::make_unique<SilentTracker>(sim, env, config, *policy);
    tracker->set_sinks({.trace = &trace, .counters = &counters});
    tracker->start(0, best.rx_beam, best.rx_power_dbm,
                   [this](const net::HandoverRecord& r) { record = r; });
  }

  /// Time of the first SilentTracker event of `type` (and `label`, when
  /// given), if any.
  [[nodiscard]] std::optional<Time> first_time_of(
      obs::TraceEventType type, std::string_view label = {}) const {
    for (const obs::TraceEvent& e :
         trace.buffer(obs::Component::kSilentTracker).snapshot()) {
      if (e.type == type && (label.empty() || e.label == label)) {
        return e.t;
      }
    }
    return std::nullopt;
  }

  sim::Simulator sim;
  net::RadioEnvironment env;
  obs::TraceRecorder trace;
  obs::ProtocolCounters counters;
  std::unique_ptr<BeamPolicy> policy;
  std::unique_ptr<SilentTracker> tracker;
  std::optional<net::HandoverRecord> record;
};

TEST(SilentTracker, WalksThroughAllStatesToSoftHandover) {
  TrackerWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 60'000_ms);

  ASSERT_TRUE(world.record.has_value()) << "handover never concluded";
  EXPECT_TRUE(world.record->success);
  EXPECT_EQ(world.record->from, 0U);
  EXPECT_EQ(world.record->to, 1U);
  EXPECT_EQ(world.record->type, net::HandoverType::kSoft);
  EXPECT_EQ(world.tracker->state(), SilentTrackerState::kComplete);
}

TEST(SilentTracker, EventOrderIsSearchFoundTrackAccessComplete) {
  TrackerWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 60'000_ms);
  ASSERT_TRUE(world.record.has_value());

  using Type = obs::TraceEventType;
  const std::optional<Time> t_found = world.first_time_of(Type::kCellFound);
  const std::optional<Time> t_lost = world.first_time_of(Type::kServingLost);
  const std::optional<Time> t_access =
      world.first_time_of(Type::kStateTransition, "Accessing");
  const std::optional<Time> t_complete =
      world.first_time_of(Type::kHandoverComplete);
  ASSERT_TRUE(t_found && t_lost && t_access && t_complete);
  EXPECT_LT(*t_found, *t_lost);  // neighbour discovered BEFORE serving died
  EXPECT_LE(*t_lost, *t_access);
  EXPECT_LT(*t_access, *t_complete);
  EXPECT_EQ(world.counters[obs::ProtocolCounter::kHandoverComplete], 1U);
}

TEST(SilentTracker, SoftHandoverInterruptionIsShort) {
  TrackerWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 60'000_ms);
  ASSERT_TRUE(world.record.has_value());
  ASSERT_TRUE(world.record->success);
  // Soft handover: interruption is RACH-scale (tens of ms), far below the
  // 1.28 s initial-search budget a hard handover would add.
  EXPECT_LT(world.record->interruption(), 300_ms);
}

TEST(SilentTracker, TrackedBeamStaysNearGroundTruthWhileTracking) {
  TrackerWorld world;
  world.start();
  // Sample tracking quality once a second until the handover concludes.
  std::vector<double> gaps;
  world.sim.schedule_periodic(Time::zero(), 1000_ms, [&] {
    if (world.tracker->state() != SilentTrackerState::kTracking) {
      return;
    }
    const auto cell = world.tracker->neighbour_cell();
    const auto tx = world.tracker->neighbour_tx_beam();
    const auto best = world.env.ground_truth_best_rx(cell, tx,
                                                     world.sim.now());
    const double got =
        world.env.true_dl_snr_db(cell, tx, world.tracker->neighbour_rx_beam(),
                                 world.sim.now()) +
        world.env.link_budget().noise_floor_dbm();
    gaps.push_back(best.rx_power_dbm - got);
  });
  world.sim.run_until(Time::zero() + 60'000_ms);
  ASSERT_TRUE(world.record.has_value());
  ASSERT_FALSE(gaps.empty());
  // Fig. 2c's property in miniature: the tracked receive beam is within
  // 3 dB of the best for the tracked TX beam at most checkpoints, and
  // never catastrophically lost. The rule has an intrinsic blind spot
  // while *approaching* a cell: the stale beam's RSS keeps rising, so the
  // 3 dB *drop* fires late even as a better beam appears — hence "most",
  // not "all" (the paper's rule, faithfully reproduced).
  std::size_t aligned = 0;
  for (const double gap : gaps) {
    EXPECT_LE(gap, 12.0);
    if (gap <= 3.0) {
      ++aligned;
    }
  }
  EXPECT_GE(static_cast<double>(aligned) / static_cast<double>(gaps.size()),
            0.75);
}

TEST(SilentTracker, FinalBeamAlignedAtCompletion) {
  TrackerWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 60'000_ms);
  ASSERT_TRUE(world.record.has_value());
  ASSERT_TRUE(world.record->success);
  const auto& r = *world.record;
  const auto best =
      world.env.ground_truth_best_rx(r.to, r.target_tx_beam, r.completed);
  const double got = world.env.true_dl_snr_db(r.to, r.target_tx_beam,
                                              r.final_rx_beam, r.completed) +
                     world.env.link_budget().noise_floor_dbm();
  EXPECT_LE(best.rx_power_dbm - got, 3.0);
}

TEST(SilentTracker, StateAccessorsDuringTracking) {
  TrackerWorld world;
  world.start();
  // Let it find the neighbour, then inspect mid-flight.
  world.sim.run_until(Time::zero() + 3000_ms);
  if (world.tracker->state() == SilentTrackerState::kTracking) {
    EXPECT_EQ(world.tracker->neighbour_cell(), 1U);
    EXPECT_NE(world.tracker->neighbour_rx_beam(), phy::kInvalidBeam);
    EXPECT_NE(world.tracker->neighbour_tx_beam(), phy::kInvalidBeam);
    EXPECT_TRUE(world.tracker->serving_alive());
  }
}

TEST(SilentTracker, FullSweepPolicyAlsoCompletes) {
  TrackerWorld world;
  world.start({}, BeamPolicyKind::kFullSweep);
  world.sim.run_until(Time::zero() + 60'000_ms);
  ASSERT_TRUE(world.record.has_value());
  EXPECT_TRUE(world.record->success);
}

TEST(SilentTracker, StopMidFlightIsClean) {
  TrackerWorld world;
  world.start();
  world.sim.run_until(Time::zero() + 2000_ms);
  world.tracker->stop();
  const auto executed = world.sim.events_executed();
  world.sim.run_until(Time::zero() + 10'000_ms);
  // Only the environment-less residue may fire; protocol is quiet.
  EXPECT_LE(world.sim.events_executed() - executed, 2U);
  EXPECT_EQ(world.tracker->state(), SilentTrackerState::kIdle);
}

// Cell 1's SSB period is one slot longer than cell 0's, so its bursts
// slide across the serving bursts: some neighbour slots fall on a serving
// SSB slot, most do not.
net::RadioEnvironment drifting_neighbour_env() {
  net::Deployment d = test::two_cells();
  const net::BaseStation& cell1 = d.base_stations[1];
  net::FrameConfig frame = cell1.schedule().config();
  frame.ssb_period = frame.ssb_period + frame.slot;
  d.base_stations[1] = net::BaseStation(
      cell1.id(), cell1.pose(), cell1.codebook(), cell1.tx_power_dbm(),
      net::FrameSchedule(frame, cell1.schedule().offset()));
  return net::RadioEnvironment(test::clean_environment(),
                               std::move(d.base_stations),
                               TrackerWorld::walker(3.0),
                               phy::Codebook::from_beamwidth_deg(20.0));
}

TEST(SilentTracker, ServingSlotsPreemptNeighbourObservations) {
  TrackerWorld world(drifting_neighbour_env());
  world.start();
  world.sim.run_until(Time::zero() + 60'000_ms);

  const std::optional<Time> t_lost =
      world.first_time_of(obs::TraceEventType::kServingLost);
  ASSERT_TRUE(t_lost.has_value());
  EXPECT_GT(world.counters[obs::ProtocolCounter::kNeighbourSlotsPreempted],
            0U);

  // While the serving cell is alive, no neighbour sample is taken at an
  // instant the serving schedule holds an SSB slot.
  const net::FrameSchedule& serving = world.env.bs(0).schedule();
  std::size_t neighbour_samples = 0;
  for (const obs::TraceEvent& e :
       world.trace.buffer(obs::Component::kSilentTracker).snapshot()) {
    if (e.type != obs::TraceEventType::kRssSample || e.t >= *t_lost) {
      continue;
    }
    ++neighbour_samples;
    EXPECT_EQ(e.cell, 1U);
    EXPECT_FALSE(serving.ssb_at(e.t).has_value())
        << "neighbour sample at a serving slot, t = " << e.t.ms() << " ms";
  }
  EXPECT_GT(neighbour_samples, 0U);
}

TEST(SilentTracker, RequiresTwoCells) {
  sim::Simulator sim;
  net::DeploymentConfig config;
  net::Deployment d = net::make_cell_row(config, 1);
  net::RadioEnvironment env(test::clean_environment(),
                            std::move(d.base_stations),
                            test::standing_at({5.0, 10.0, 0.0}),
                            phy::Codebook::omni());
  const auto policy = make_beam_policy({});
  EXPECT_THROW(SilentTracker(sim, env, ProtocolConfig{}, *policy),
               std::invalid_argument);
}

TEST(SilentTracker, NullCallbackThrows) {
  TrackerWorld world;
  world.policy = make_beam_policy({});
  world.tracker = std::make_unique<SilentTracker>(
      world.sim, world.env, ProtocolConfig{}, *world.policy);
  EXPECT_THROW(world.tracker->start(0, 0, -60.0, nullptr),
               std::invalid_argument);
}

TEST(SilentTracker, DoubleStartThrows) {
  TrackerWorld world;
  world.start();
  EXPECT_THROW(
      world.tracker->start(0, 0, -60.0, [](const net::HandoverRecord&) {}),
      std::logic_error);
}

TEST(SilentTracker, StateNamesForDisplay) {
  EXPECT_EQ(to_string(SilentTrackerState::kSearching), "InitialSearch");
  EXPECT_EQ(to_string(SilentTrackerState::kTracking), "Tracking");
  EXPECT_EQ(to_string(SilentTrackerState::kAccessing), "Accessing");
  EXPECT_EQ(to_string(SilentTrackerState::kComplete), "Complete");
}

}  // namespace
}  // namespace st::core
