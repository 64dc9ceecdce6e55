// Cross-cutting invariants, swept over seeds and configurations: facts
// that must hold for every run regardless of the channel weather — record
// ordering, metric sanity, counter consistency. These are the checks that
// catch "impossible" states introduced by future protocol edits.
#include <gtest/gtest.h>

#include "core/scenario.hpp"

namespace st::core {
namespace {

using namespace st::sim::literals;

class RunInvariants
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, MobilityScenario, ProtocolKind>> {};

TEST_P(RunInvariants, HoldForEveryRun) {
  const auto [seed, mobility, protocol] = GetParam();
  const ScenarioSpec base = preset::paper(mobility);
  UeProfile ue = base.ues.front();
  ue.protocol = protocol;
  const ScenarioSpec spec = SpecBuilder()
                                .cells(base.n_cells)
                                .deployment(base.deployment)
                                .duration(15'000_ms)
                                .seed(seed)
                                .ue(ue)
                                .build();
  const ScenarioResult r = run_scenario(spec);

  const auto end = sim::Time::zero() + spec.duration;

  for (const auto& h : r.handovers) {
    // Temporal ordering: loss <= access start <= completion, all within
    // the run.
    EXPECT_LE(h.serving_lost, h.access_started);
    EXPECT_LE(h.access_started, h.completed);
    EXPECT_LE(h.completed, end);
    EXPECT_GE(h.serving_lost, sim::Time::zero());
    // Interruption is non-negative by construction of the above.
    EXPECT_GE(h.interruption().ns(), 0);
    if (h.success) {
      // A successful handover names a real target and beams.
      EXPECT_NE(h.to, net::kInvalidCell);
      EXPECT_NE(h.to, h.from);
      EXPECT_NE(h.final_rx_beam, phy::kInvalidBeam);
      EXPECT_NE(h.target_tx_beam, phy::kInvalidBeam);
      EXPECT_GE(h.rach_attempts, 1U);
    }
  }

  // Completed handovers never exceed serving-loss events.
  EXPECT_LE(r.counters[obs::ProtocolCounter::kHandoverComplete],
            r.counters[obs::ProtocolCounter::kServingLost]);

  // Metric series are time-ordered and within the run.
  const auto check_series = [&](const sim::TimeSeries& series) {
    sim::Time last = sim::Time::zero();
    for (const auto& p : series.points()) {
      EXPECT_GE(p.t, last);
      EXPECT_LE(p.t, end);
      last = p.t;
    }
  };
  check_series(r.serving_snr_db);
  check_series(r.alignment_gap_db);
  check_series(r.neighbour_tracked_rss_dbm);

  // The alignment gap can only be meaningfully negative by the 1 dB-ish
  // numeric slack of the argmax (it is best-minus-tracked).
  for (const auto& p : r.alignment_gap_db.points()) {
    EXPECT_GE(p.value, -1e-6);
  }

  // Fractions are fractions.
  EXPECT_GE(r.tracking_alignment_fraction(), 0.0);
  EXPECT_LE(r.tracking_alignment_fraction(), 1.0);
  EXPECT_GE(r.alignment_until_first_handover(), 0.0);
  EXPECT_LE(r.alignment_until_first_handover(), 1.0);

  // The measurement budget was spent and counted.
  EXPECT_GT(r.ssb_observations, 0U);

  // Soft + hard partitions successful-or-failed handovers.
  EXPECT_LE(r.soft_handovers() + r.hard_handovers(),
            r.handovers.size() + r.hard_handovers());
  EXPECT_LE(r.successful_handovers(), r.handovers.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunInvariants,
    ::testing::Combine(
        ::testing::Values(3ULL, 77ULL, 2024ULL),
        ::testing::Values(MobilityScenario::kHumanWalk,
                          MobilityScenario::kRotation,
                          MobilityScenario::kVehicular),
        ::testing::Values(ProtocolKind::kSilentTracker,
                          ProtocolKind::kReactive)));

}  // namespace
}  // namespace st::core
