#include "net/link_monitor.hpp"

#include <gtest/gtest.h>

#include "mobility/walk.hpp"
#include "net/test_helpers.hpp"
#include "sim/simulator.hpp"

namespace st::net {
namespace {

using namespace st::sim::literals;
using sim::Time;

TEST(LinkMonitor, HealthyLinkNeverFails) {
  sim::Simulator sim;
  auto env = test::make_two_cell_env(test::standing_at({5.0, 10.0, 0.0}));
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);

  LinkMonitor monitor(sim, env, LinkMonitorConfig{});
  bool failed = false;
  monitor.start(0, [&] { return best.rx_beam; }, [&] { failed = true; });
  sim.run_until(Time::zero() + 2000_ms);
  EXPECT_FALSE(failed);
  EXPECT_TRUE(monitor.monitoring());
  EXPECT_GT(env.true_dl_snr_db(0, best.tx_beam, best.rx_beam, sim.now()),
            env.link_budget().config().data_threshold_snr_db);
  monitor.stop();
  EXPECT_FALSE(monitor.monitoring());
}

TEST(LinkMonitor, MisalignedBeamFailsAfterWindow) {
  sim::Simulator sim;
  auto env = test::make_two_cell_env(test::standing_at({5.0, 10.0, 0.0}));
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);
  const auto n = static_cast<phy::BeamId>(env.ue_codebook().size());
  const phy::BeamId wrong = (best.rx_beam + n / 2) % n;

  LinkMonitorConfig config;
  config.failure_window = 50_ms;
  LinkMonitor monitor(sim, env, config);
  Time failed_at{};
  bool failed = false;
  monitor.start(0, [&] { return wrong; }, [&] {
    failed = true;
    failed_at = sim.now();
  });
  sim.run_until(Time::zero() + 1000_ms);
  ASSERT_TRUE(failed);
  EXPECT_FALSE(monitor.monitoring());  // stops after declaring failure
  // Below threshold from t=0: declaration at the window boundary.
  EXPECT_EQ(failed_at, Time::zero() + 50_ms);
}

TEST(LinkMonitor, WalkingOutOfCoverageEventuallyFails) {
  sim::Simulator sim;
  mobility::WalkConfig walk;
  walk.start = {10.0, 10.0, 0.0};
  walk.speed_mps = 20.0;  // fast-forward out of the cell
  walk.sway_amplitude_m = 0.0;
  walk.yaw_jitter_stddev_rad = 0.0;
  auto ue = std::make_shared<mobility::LinearWalk>(walk, 60_s, 1);
  Deployment d = test::two_cells();
  RadioEnvironment env(test::clean_environment(), std::move(d.base_stations),
                       ue, phy::Codebook::from_beamwidth_deg(20.0));
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);

  LinkMonitor monitor(sim, env, LinkMonitorConfig{});
  bool failed = false;
  // Beam frozen at the initial best: misaligns as the mobile recedes.
  monitor.start(0, [&] { return best.rx_beam; }, [&] { failed = true; });
  sim.run_until(Time::zero() + 30'000_ms);
  EXPECT_TRUE(failed);
}

TEST(LinkMonitor, InOutageIsTransientState) {
  // Flip the serving TX beam to something hopeless mid-run, then restore
  // before the window expires: outage seen, no failure declared.
  sim::Simulator sim;
  auto env = test::make_two_cell_env(test::standing_at({5.0, 10.0, 0.0}));
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);
  const auto n_tx = static_cast<phy::BeamId>(env.bs(0).codebook().size());
  const phy::BeamId bad_tx = (best.tx_beam + n_tx / 2) % n_tx;

  LinkMonitorConfig config;
  config.failure_window = 100_ms;
  LinkMonitor monitor(sim, env, config);
  bool failed = false;
  bool saw_outage = false;
  monitor.start(0, [&] { return best.rx_beam; }, [&] { failed = true; });

  sim.schedule_at(Time::zero() + 20_ms,
                  [&] { env.bs_mutable(0).set_serving_tx_beam(bad_tx); });
  sim.schedule_at(Time::zero() + 60_ms, [&] {
    saw_outage = monitor.in_outage();
    env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);
  });
  sim.run_until(Time::zero() + 1000_ms);
  EXPECT_TRUE(saw_outage);
  EXPECT_FALSE(failed);
  EXPECT_FALSE(monitor.in_outage());
}

TEST(LinkMonitor, InvalidUsageThrows) {
  sim::Simulator sim;
  auto env = test::make_two_cell_env(test::standing_at({5.0, 10.0, 0.0}));
  LinkMonitorConfig bad;
  bad.check_period = sim::Duration{};
  EXPECT_THROW(LinkMonitor(sim, env, bad), std::invalid_argument);

  LinkMonitor monitor(sim, env, LinkMonitorConfig{});
  EXPECT_THROW(monitor.start(0, nullptr, [] {}), std::invalid_argument);
  EXPECT_THROW(monitor.start(0, [] { return phy::BeamId{0}; }, nullptr),
               std::invalid_argument);
  monitor.start(0, [] { return phy::BeamId{0}; }, [] {});
  EXPECT_THROW(monitor.start(0, [] { return phy::BeamId{0}; }, [] {}),
               std::logic_error);
  monitor.stop();
}

TEST(LinkMonitor, StopPreventsFutureFailure) {
  sim::Simulator sim;
  auto env = test::make_two_cell_env(test::standing_at({5.0, 10.0, 0.0}));
  const auto n = static_cast<phy::BeamId>(env.ue_codebook().size());
  const auto best = env.ground_truth_best_pair(0, Time::zero());
  const phy::BeamId wrong = (best.rx_beam + n / 2) % n;
  env.bs_mutable(0).set_serving_tx_beam(best.tx_beam);

  LinkMonitor monitor(sim, env, LinkMonitorConfig{});
  bool failed = false;
  monitor.start(0, [&] { return wrong; }, [&] { failed = true; });
  sim.schedule_at(Time::zero() + 10_ms, [&] { monitor.stop(); });
  sim.run_until(Time::zero() + 2000_ms);
  EXPECT_FALSE(failed);
}

}  // namespace
}  // namespace st::net
