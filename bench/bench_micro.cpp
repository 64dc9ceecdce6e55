// E7 — micro-benchmarks of the hot paths (google-benchmark).
//
// These are throughput sanity checks, not paper results: the protocol's
// decisions are driven by RSS updates, codebook gain lookups, channel
// evaluations, and simulator event dispatch — all of which must be cheap
// enough that a 30 s scenario with millisecond-scale events runs in well
// under a second.
//
// The BM_BestBeamPair* pair measures the channel-sweep fast path against
// the naive per-pair formulation over the same codebooks; the snapshot
// kernel must hold a >= 5x advantage (tracked across PRs via the JSON).
//
// Besides the stdout table, the binary writes a machine-readable
// `BENCH_micro.json` (op name -> ns/op, plus items/s throughput where a
// benchmark reports it) into the working directory so the perf
// trajectory is diffable across PRs.
#include <benchmark/benchmark.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/rss_tracker.hpp"
#include "core/scenario.hpp"
#include "net/timing.hpp"
#include "obs/report.hpp"
#include "phy/channel.hpp"
#include "phy/codebook.hpp"
#include "phy/path_snapshot.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace st;
using namespace st::sim::literals;

void BM_RssTrackerAddSample(benchmark::State& state) {
  core::RssTracker tracker(core::RssTrackerConfig{});
  tracker.select_beam(3, -60.0);
  double rss = -60.0;
  for (auto _ : state) {
    rss = rss < -70.0 ? -60.0 : rss - 0.01;
    tracker.add_sample(rss);
    benchmark::DoNotOptimize(tracker.drop_detected());
  }
}
BENCHMARK(BM_RssTrackerAddSample);

void BM_GaussianGainLookup(benchmark::State& state) {
  const phy::GaussianPattern pattern(deg_to_rad(20.0));
  double theta = -3.0;
  for (auto _ : state) {
    theta += 0.001;
    if (theta > 3.0) {
      theta = -3.0;
    }
    benchmark::DoNotOptimize(pattern.gain_dbi(theta));
  }
}
BENCHMARK(BM_GaussianGainLookup);

void BM_GaussianGain(benchmark::State& state) {
  // One linear gain of the paper's 20 deg pattern, Arg 0 inside the main
  // lobe (exp evaluated), Arg 1 beyond the lobe/floor crossing (the floor
  // returned without exp).
  const phy::GaussianPattern pattern(deg_to_rad(20.0));
  const bool floor = state.range(0) != 0;
  const double lo = floor ? 1.0 : -0.15;
  const double hi = floor ? 3.0 : 0.15;
  const double step = (hi - lo) / 1024.0;
  double theta = lo;
  for (auto _ : state) {
    theta += step;
    if (theta > hi) {
      theta = lo;
    }
    benchmark::DoNotOptimize(pattern.gain_linear(theta));
  }
}
BENCHMARK(BM_GaussianGain)->Arg(0)->Arg(1);

void BM_CodebookBestBeam(benchmark::State& state) {
  const phy::Codebook cb =
      phy::Codebook::from_beamwidth_deg(static_cast<double>(state.range(0)));
  double az = -3.0;
  for (auto _ : state) {
    az += 0.01;
    if (az > 3.0) {
      az = -3.0;
    }
    benchmark::DoNotOptimize(cb.best_beam_for(az));
  }
}
BENCHMARK(BM_CodebookBestBeam)->Arg(20)->Arg(60);

void BM_ChannelEvaluation(benchmark::State& state) {
  phy::ChannelConfig config;
  config.multipath.reflector_count = static_cast<unsigned>(state.range(0));
  const phy::Channel channel(config, {0.0, 0.0, 0.0}, {30.0, 10.0, 0.0},
                             60_s, 1);
  const phy::Codebook cb = phy::Codebook::from_beamwidth_deg(20.0);
  Pose tx;
  Pose rx;
  rx.position = {30.0, 10.0, 0.0};
  std::int64_t t_ns = 0;
  for (auto _ : state) {
    t_ns += 1'000'000;
    rx.position.x += 1e-4;
    benchmark::DoNotOptimize(channel.rx_power_dbm(
        tx, cb.beam(0), rx, cb.beam(9), sim::Time::from_ns(t_ns), 13.0));
  }
}
BENCHMARK(BM_ChannelEvaluation)->Arg(0)->Arg(3)->Arg(8);

/// Shared fixture for the sweep benchmarks: the calibrated operating
/// point's BS codebook (45 deg x 8) against the paper's 20 deg x 18 UE
/// codebook — 144 beam pairs per exhaustive sweep.
struct SweepFixture {
  phy::ChannelConfig config{};
  phy::Channel channel;
  phy::Codebook bs_codebook = phy::Codebook::from_beamwidth_deg(45.0);
  phy::Codebook ue_codebook = phy::Codebook::from_beamwidth_deg(20.0);
  Pose tx;
  Pose rx;

  SweepFixture()
      : channel(config, {0.0, 0.0, 0.0}, {30.0, 10.0, 0.0}, 60_s, 1) {
    rx.position = {30.0, 10.0, 0.0};
  }
};

void BM_BestBeamPairNaive(benchmark::State& state) {
  SweepFixture f;
  std::int64_t t_ns = 0;
  for (auto _ : state) {
    t_ns += 1'000'000;
    f.rx.position.x += 1e-4;
    benchmark::DoNotOptimize(
        f.channel.best_beam_pair_naive(f.tx, f.bs_codebook, f.rx,
                                       f.ue_codebook,
                                       sim::Time::from_ns(t_ns), 13.0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(f.bs_codebook.size() * f.ue_codebook.size()));
}
BENCHMARK(BM_BestBeamPairNaive);

void BM_BestBeamPairSnapshot(benchmark::State& state) {
  SweepFixture f;
  std::int64_t t_ns = 0;
  for (auto _ : state) {
    t_ns += 1'000'000;
    f.rx.position.x += 1e-4;
    benchmark::DoNotOptimize(
        f.channel.best_beam_pair(f.tx, f.bs_codebook, f.rx, f.ue_codebook,
                                 sim::Time::from_ns(t_ns), 13.0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(f.bs_codebook.size() * f.ue_codebook.size()));
}
BENCHMARK(BM_BestBeamPairSnapshot);

void BM_SnapshotRxPower(benchmark::State& state) {
  // One (TX beam, RX beam) pair over a warm snapshot — the cost of every
  // SSB observation and link check once its snapshot is current. The RX
  // beam cycles through the codebook, so most paths land on the floor.
  SweepFixture f;
  phy::PathSnapshot snapshot;
  f.channel.make_snapshot(f.tx, f.rx, sim::Time::from_ns(1'000'000), 13.0,
                          snapshot);
  const phy::Beam& tx_beam = f.bs_codebook.beam(0);
  std::size_t rx = 0;
  for (auto _ : state) {
    rx = rx + 1 == f.ue_codebook.size() ? 0 : rx + 1;
    benchmark::DoNotOptimize(phy::snapshot_rx_power_dbm(
        snapshot, tx_beam, f.ue_codebook.beam(static_cast<phy::BeamId>(rx))));
  }
}
BENCHMARK(BM_SnapshotRxPower);

/// The paper's walking UE (cell-edge walk, 20° codebook) and a misaligned
/// pair of neighbour cell 1: both beams half a codebook away from the best
/// pair at t0, so detection is all but impossible.
struct ObserveFixture {
  core::ScenarioSpec spec =
      core::SpecBuilder(core::preset::paper_walk()).build();
  net::Deployment deployment = core::make_deployment(spec);
  std::unique_ptr<net::RadioEnvironment> env =
      core::make_ue_environment(spec, 0, deployment);
  sim::Time t0 = sim::Time::zero() + 10'000_ms;
  phy::BeamId tx = 0;
  phy::BeamId rx = 0;

  ObserveFixture() {
    const auto best = env->ground_truth_best_pair(1, t0);
    const auto n_tx = static_cast<phy::BeamId>(env->bs(1).codebook().size());
    const auto n_rx = static_cast<phy::BeamId>(env->ue_codebook().size());
    tx = (best.tx_beam + n_tx / 2) % n_tx;
    rx = (best.rx_beam + n_rx / 2) % n_rx;
  }
};

void BM_ObserveSsbCertifiedMiss(benchmark::State& state) {
  // The misaligned pair 125 µs after the cell's last refresh: the slope
  // bound settles the miss from the cached snapshot, with no refresh
  // (docs/PERFORMANCE.md §12). Every call asks for the same instant, which
  // stays uncached because a certified miss refreshes nothing.
  ObserveFixture f;
  (void)f.env->true_dl_snr_db(1, f.tx, f.rx, f.t0);
  const sim::Time t = f.t0 + 125_us;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.env->observe_ssb(1, f.tx, f.rx, t));
  }
  if (f.env->snapshot_stats().certified_misses !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("an observation took the exact path");
  }
}
BENCHMARK(BM_ObserveSsbCertifiedMiss);

void BM_ObserveSsbExact(benchmark::State& state) {
  // The same pair on the exact path: each call steps 125 µs back in time,
  // so the cached instant never precedes it and every call refreshes the
  // cell (and the SSB-transmitting neighbours, for the SINR).
  ObserveFixture f;
  sim::Time t = f.t0;
  for (auto _ : state) {
    t = t > sim::Time::zero() + 1'000_ms ? t - 125_us : f.t0;
    benchmark::DoNotOptimize(f.env->observe_ssb(1, f.tx, f.rx, t));
  }
  if (f.env->snapshot_stats().certified_misses != 0) {
    state.SkipWithError("an observation was certified");
  }
}
BENCHMARK(BM_ObserveSsbExact);

void BM_SnapshotBuild(benchmark::State& state) {
  SweepFixture f;
  phy::PathSnapshot snapshot;
  std::int64_t t_ns = 0;
  for (auto _ : state) {
    t_ns += 1'000'000;
    f.rx.position.x += 1e-4;
    f.channel.make_snapshot(f.tx, f.rx, sim::Time::from_ns(t_ns), 13.0,
                            snapshot);
    benchmark::DoNotOptimize(snapshot.base_linear.data());
  }
}
BENCHMARK(BM_SnapshotBuild);

void BM_SnapshotUpdateWalk(benchmark::State& state) {
  // The incremental rebuild on a walking trajectory: position deltas
  // invalidate geometry but the slow shadowing/blockage processes mostly
  // carry over between 1 ms ticks.
  SweepFixture f;
  phy::PathSnapshot snapshot;
  phy::SnapshotReuse reuse;
  std::int64_t t_ns = 0;
  for (auto _ : state) {
    t_ns += 1'000'000;
    f.rx.position.x += 1e-4;
    f.channel.update_snapshot(f.tx, f.rx, sim::Time::from_ns(t_ns), 13.0,
                              snapshot, &reuse, nullptr);
    benchmark::DoNotOptimize(snapshot.base_linear.data());
  }
}
BENCHMARK(BM_SnapshotUpdateWalk);

void BM_SnapshotUpdateRotation(benchmark::State& state) {
  // Rotation-only motion: geometry, shadowing, and blockage all reuse;
  // only the body-frame azimuths and gain products are recomputed.
  SweepFixture f;
  phy::PathSnapshot snapshot;
  phy::SnapshotReuse reuse;
  std::int64_t t_ns = 0;
  double yaw = 0.0;
  for (auto _ : state) {
    t_ns += 1'000'000;
    yaw += 2e-3;
    f.rx.orientation = Quaternion::from_yaw(yaw);
    f.channel.update_snapshot(f.tx, f.rx, sim::Time::from_ns(t_ns), 13.0,
                              snapshot, &reuse, nullptr);
    benchmark::DoNotOptimize(snapshot.base_linear.data());
  }
}
BENCHMARK(BM_SnapshotUpdateRotation);

void BM_BestBeamPairIncremental(benchmark::State& state) {
  // The full fleet fast path per (UE, cell) step: incremental snapshot
  // refresh plus the vectorized 144-pair sweep.
  SweepFixture f;
  phy::PathSnapshot snapshot;
  phy::SnapshotReuse reuse;
  std::int64_t t_ns = 0;
  for (auto _ : state) {
    t_ns += 1'000'000;
    f.rx.position.x += 1e-4;
    f.channel.update_snapshot(f.tx, f.rx, sim::Time::from_ns(t_ns), 13.0,
                              snapshot, &reuse, nullptr);
    benchmark::DoNotOptimize(
        phy::sweep_beam_pairs(snapshot, f.bs_codebook, f.ue_codebook));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(f.bs_codebook.size() * f.ue_codebook.size()));
}
BENCHMARK(BM_BestBeamPairIncremental);

void BM_SweepRxBeamsKernel(benchmark::State& state) {
  SweepFixture f;
  phy::PathSnapshot snapshot;
  f.channel.make_snapshot(f.tx, f.rx, sim::Time::from_ns(1'000'000), 13.0,
                          snapshot);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phy::sweep_rx_beams(snapshot, f.bs_codebook.beam(0), f.ue_codebook));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.ue_codebook.size()));
}
BENCHMARK(BM_SweepRxBeamsKernel);

void BM_FrameScheduleNextSsb(benchmark::State& state) {
  const net::FrameSchedule schedule(net::FrameConfig{}, 7_ms);
  sim::Time t = sim::Time::zero();
  for (auto _ : state) {
    const net::SsbSlot slot = schedule.next_ssb(t);
    t = slot.start + 1_ns;
    benchmark::DoNotOptimize(slot);
  }
}
BENCHMARK(BM_FrameScheduleNextSsb);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator simulator;
    constexpr int kEvents = 1000;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      simulator.schedule_at(sim::Time::from_ns(i * 1000), [&fired] { ++fired; });
    }
    state.ResumeTiming();
    simulator.run_until(sim::Time::from_ns(kEvents * 1000));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventDispatch);

/// Console reporter that also collects every run and dumps a compact
/// machine-readable summary (op name -> ns/op, plus items/s where
/// reported, then the snapshot-cache block) to BENCH_micro.json on
/// finalize.
class JsonTeeReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(json::Value snapshot_cache)
      : snapshot_cache_(std::move(snapshot_cache)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      json::Value entry = json::Value::object();
      entry.set("name", run.benchmark_name());
      entry.set("ns_per_op", run.GetAdjustedRealTime() * to_ns(run.time_unit));
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        entry.set("items_per_second", it->second.value);
      }
      benchmarks_.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    json::Value doc = json::Value::object();
    doc.set("benchmarks", std::move(benchmarks_));
    doc.set("snapshot_cache", std::move(snapshot_cache_));
    std::ofstream("BENCH_micro.json") << doc.dump() << "\n";
  }

 private:
  static double to_ns(benchmark::TimeUnit unit) noexcept {
    switch (unit) {
      case benchmark::kNanosecond:
        return 1.0;
      case benchmark::kMicrosecond:
        return 1e3;
      case benchmark::kMillisecond:
        return 1e6;
      case benchmark::kSecond:
        return 1e9;
    }
    return 1.0;
  }

  json::Value benchmarks_ = json::Value::array();
  json::Value snapshot_cache_;
};

/// Snapshot-cache effectiveness on a representative scenario (2 s walk):
/// the cache is what turns the metric tick's ground-truth sweeps from a
/// per-query 144-pair evaluation into an epoch lookup, so its hit rate is
/// tracked in the JSON alongside the kernel timings it protects.
json::Value snapshot_cache_block() {
  const core::ScenarioSpec spec = core::SpecBuilder(core::preset::paper_walk())
                                      .duration(2'000_ms)
                                      .build();
  return obs::snapshot_cache_json(core::run_scenario(spec).snapshot_cache);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  JsonTeeReporter reporter(snapshot_cache_block());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
