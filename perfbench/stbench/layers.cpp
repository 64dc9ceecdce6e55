#include "stbench/layers.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/scenario.hpp"
#include "core/spec_json.hpp"
#include "net/handover_policy.hpp"
#include "rate/mcs.hpp"
#include "rate/rate_model.hpp"
#include "sim/simulator.hpp"

namespace stbench {

namespace {

using st::sim::Duration;
using st::sim::Time;

constexpr int kRounds = 5;         // median over this many passes
constexpr std::size_t kSampledUes = 6;  // covers every profile kind
constexpr std::size_t kSteps = 150;     // metric ticks per sampled UE

/// Sink for values a timed loop computes, so the loop is not elided.
volatile double g_sink = 0.0;

double ns_per(double seconds, std::size_t calls) {
  return calls > 0 ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
}

/// `kSteps` instants `step` apart, starting `offset` steps in, wrapped
/// into the run's duration.
std::vector<Time> instants(const st::core::ScenarioSpec& spec, Duration step,
                           std::size_t offset) {
  std::vector<Time> out;
  for (std::size_t i = 0; i < kSteps; ++i) {
    const std::int64_t ns =
        step.ns() * static_cast<std::int64_t>(offset + i) % spec.duration.ns();
    out.push_back(Time::zero() + Duration::nanoseconds(ns));
  }
  return out;
}

bool decision_enabled(const st::core::ScenarioSpec& spec) {
  return std::any_of(spec.ues.begin(), spec.ues.end(),
                     [](const st::core::UeProfile& p) {
                       return p.handover_policy.enabled;
                     });
}

/// Snapshot refresh, receive sweep and SSB observation on fresh
/// per-UE environments, per (UE, cell, instant), with instants `step`
/// apart — the run's mean interval between refreshes of one link, so a
/// refresh carries over as much as it does in the run. The refresh is
/// the first query of a cell at a new instant; the sweep and the
/// observation then run on the current snapshot.
void time_environment(const st::core::ScenarioSpec& spec,
                      const st::net::Deployment& deployment, Duration step,
                      LayerReport& out) {
  const std::size_t n_ues = std::min(kSampledUes, spec.ues.size());
  st::SampleSet pose, refresh, best_rx, observe;
  for (int round = 0; round < kRounds; ++round) {
    double pose_s = 0, refresh_s = 0, best_rx_s = 0, observe_s = 0;
    std::size_t poses = 0, calls = 0;
    for (std::size_t ue = 0; ue < n_ues; ++ue) {
      const auto env = st::core::make_ue_environment(spec, ue, deployment);
      const auto cells = static_cast<st::net::CellId>(env->cell_count());
      const std::size_t rx_beams = env->ue_codebook().size();
      const std::vector<Time> ts =
          instants(spec, step, static_cast<std::size_t>(round) * kSteps);
      double sink = 0.0;
      auto t0 = Clock::now();
      for (const Time t : ts) {
        sink += env->ue_pose(t).position.x;
      }
      pose_s += seconds_between(t0, Clock::now());
      poses += ts.size();
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const Time t = ts[i];
        const auto rx = static_cast<st::phy::BeamId>(i % rx_beams);
        t0 = Clock::now();
        for (st::net::CellId c = 0; c < cells; ++c) {
          sink += env->true_dl_snr_db(c, env->bs(c).serving_tx_beam(), rx, t);
        }
        const auto t1 = Clock::now();
        for (st::net::CellId c = 0; c < cells; ++c) {
          sink += env->ground_truth_best_rx(c, env->bs(c).serving_tx_beam(), t)
                      .rx_power_dbm;
        }
        const auto t2 = Clock::now();
        for (st::net::CellId c = 0; c < cells; ++c) {
          sink += env->observe_ssb(c, env->bs(c).serving_tx_beam(), rx, t)
                      .rss_dbm;
        }
        const auto t3 = Clock::now();
        refresh_s += seconds_between(t0, t1);
        best_rx_s += seconds_between(t1, t2);
        observe_s += seconds_between(t2, t3);
        calls += cells;
      }
      g_sink = sink;
    }
    pose.add(ns_per(pose_s, poses));
    refresh.add(ns_per(refresh_s, calls));
    best_rx.add(ns_per(best_rx_s, calls));
    observe.add(ns_per(observe_s, calls));
  }
  out.pose_ns = pose.median();
  out.refresh_ns = refresh.median();
  out.best_rx_ns = best_rx.median();
  out.observe_ssb_ns = observe.median();
}

/// FleetChannelBatch::best_pairs per (UE, cell) at the metric cadence:
/// an incremental refresh plus a full beam-pair sweep per link.
double time_pair_sweep(const st::core::ScenarioSpec& spec) {
  st::fleet::FleetChannelBatch batch(spec);
  std::vector<st::phy::Channel::BestPair> pairs;
  batch.best_pairs(Time::zero(), pairs);  // cold builds, untimed
  const std::size_t links = batch.ue_count() * batch.cell_count();
  st::SampleSet samples;
  std::size_t tick = 1;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = Clock::now();
    constexpr std::size_t kTicks = 20;
    for (std::size_t i = 0; i < kTicks; ++i, ++tick) {
      batch.best_pairs(Time::zero() +
                           Duration::nanoseconds(spec.metric_period.ns() *
                                                 static_cast<std::int64_t>(tick)),
                       pairs);
    }
    samples.add(ns_per(seconds_between(t0, Clock::now()), kTicks * links));
  }
  return samples.median();
}

/// One HandoverDecision round per tick — observe every neighbour's SSB,
/// select, crossover — on the serving cell's neighbour list, fed with
/// observations precomputed from UE 0's environment.
double time_decision(const st::core::ScenarioSpec& spec,
                     const st::net::Deployment& deployment) {
  const st::core::UeProfile* profile = nullptr;
  for (const st::core::UeProfile& p : spec.ues) {
    if (p.handover_policy.enabled) {
      profile = &p;
      break;
    }
  }
  if (profile == nullptr) {
    return 0.0;
  }
  const auto env = st::core::make_ue_environment(spec, 0, deployment);
  // The central cell has the longest neighbour list.
  const auto serving =
      static_cast<st::net::CellId>(deployment.base_stations.size() / 2);
  const st::net::NeighborList& neighbors = deployment.neighbor_lists.at(serving);
  const std::vector<Time> ts = instants(spec, spec.metric_period, 0);
  std::vector<std::vector<st::net::SsbObservation>> obs(ts.size());
  std::vector<double> serving_rss(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    for (const st::net::CellId c : neighbors) {
      obs[i].push_back(env->observe_ssb(c, env->bs(c).serving_tx_beam(), 0, ts[i]));
    }
    serving_rss[i] =
        env->true_dl_snr_db(serving, env->bs(serving).serving_tx_beam(), 0,
                            ts[i]) +
        env->link_budget().noise_floor_dbm();
  }
  st::SampleSet samples;
  for (int round = 0; round < kRounds; ++round) {
    st::net::HandoverDecision decision(profile->handover_policy, spec.cell_load);
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      for (const st::net::SsbObservation& o : obs[i]) {
        decision.observe(o);
      }
      sink += decision.select(obs[i], neighbors, ts[i], true).value_or(0);
      sink += decision.crossover(serving, serving_rss[i], neighbors, ts[i])
                  .has_value();
    }
    samples.add(ns_per(seconds_between(t0, Clock::now()), ts.size()));
    g_sink = static_cast<double>(sink);
  }
  return samples.median();
}

/// rate::interference_mw over the loaded non-serving cells, then SINR
/// and the CQI lookup — one served rate sample — from UE 0's receive
/// levels along its trajectory.
double time_interference(const st::core::ScenarioSpec& spec,
                         const st::net::Deployment& deployment) {
  const auto env = st::core::make_ue_environment(spec, 0, deployment);
  const double noise = env->link_budget().noise_floor_dbm();
  const std::vector<Time> ts = instants(spec, spec.metric_period, 0);
  const auto cells = static_cast<st::net::CellId>(
      std::min<std::size_t>(env->cell_count(), spec.cell_load.size()));
  std::vector<std::vector<double>> rss(ts.size()), load(ts.size());
  std::vector<double> snr(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    snr[i] = env->true_dl_snr_db(0, env->bs(0).serving_tx_beam(), 0, ts[i]);
    for (st::net::CellId c = 1; c < cells; ++c) {
      if (spec.cell_load[c] > 0.0) {
        rss[i].push_back(
            env->true_dl_snr_db(c, env->bs(c).serving_tx_beam(), 0, ts[i]) +
            noise);
        load[i].push_back(spec.cell_load[c]);
      }
    }
  }
  const st::rate::McsTable& mcs = st::rate::McsTable::nr_default();
  st::SampleSet samples;
  for (int round = 0; round < kRounds; ++round) {
    int sink = 0;
    const auto t0 = Clock::now();
    // Repeat the trajectory so one round is long against the clock.
    constexpr int kRepeats = 20;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const double interference =
            st::rate::interference_mw(rss[i].data(), load[i].data(), rss[i].size());
        sink += mcs.cqi_for_sinr_db(
            st::rate::sinr_db(snr[i] + noise, noise, interference));
      }
    }
    samples.add(ns_per(seconds_between(t0, Clock::now()),
                             kRepeats * ts.size()));
    g_sink = sink;
  }
  return samples.median();
}

double time_decode_us(const std::string& job_json) {
  st::SampleSet samples;
  for (int i = 0; i < 25; ++i) {
    const auto t0 = Clock::now();
    const st::core::ScenarioSpec spec =
        st::core::spec_from_job_json(st::json::parse(job_json));
    samples.add(seconds_between(t0, Clock::now()) * 1e6);
    g_sink = static_cast<double>(spec.ues.size());
  }
  return samples.median();
}

}  // namespace

double time_dispatch_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  // ~200k dispatches per round: `depth` chains with a 1 ms period,
  // staggered by 1 us so every pop reorders the heap.
  const auto ticks = static_cast<std::int64_t>(
      std::max<std::size_t>(200'000 / depth, 10));
  st::SampleSet samples;
  for (int round = 0; round < kRounds; ++round) {
    st::sim::Simulator sim;
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule_periodic(
          Time::zero() + Duration::microseconds(static_cast<std::int64_t>(i)),
          Duration::milliseconds(1), [] {});
    }
    const auto t0 = Clock::now();
    sim.run_until(Time::zero() + Duration::milliseconds(ticks));
    samples.add(
        ns_per(seconds_between(t0, Clock::now()), sim.events_executed()));
  }
  return samples.median();
}

void measure_layer_costs(const st::core::ScenarioSpec& spec,
                         const FleetTotals& totals, const std::string& job_json,
                         SpanRecorder& spans, std::int64_t parent,
                         LayerReport& out) {
  const st::net::Deployment deployment = st::core::make_deployment(spec);
  Duration step = spec.metric_period;
  if (totals.snapshot.refreshes > 0) {
    step = Duration::seconds_of(
        totals.ue_sim_seconds * static_cast<double>(spec.n_cells) /
        static_cast<double>(totals.snapshot.refreshes));
  }
  {
    const ScopedSpan span(&spans, "mobility+phy+net.environment_calls", parent);
    time_environment(spec, deployment, std::max(step, Duration::microseconds(100)),
                     out);
  }
  {
    const ScopedSpan span(&spans, "phy.best_pairs", parent);
    out.sweep_ns = time_pair_sweep(spec);
  }
  if (decision_enabled(spec)) {
    const ScopedSpan span(&spans, "net.handover_decision", parent);
    out.decision_ns = time_decision(spec, deployment);
  }
  {
    const ScopedSpan span(&spans, "rate.interference", parent);
    out.interference_ns = time_interference(spec, deployment);
  }
  {
    const ScopedSpan span(&spans, "serve.spec_from_job_json", parent);
    out.decode_us = time_decode_us(job_json);
  }
}

void fill_layer_counts(const st::core::ScenarioSpec& spec,
                       const st::fleet::FleetResult& result,
                       LayerReport& out) {
  const FleetTotals t = fleet_totals(spec, result);
  const double ue_s = t.ue_sim_seconds > 0.0 ? t.ue_sim_seconds : 1.0;
  out.events_per_ue_s = static_cast<double>(t.events) / ue_s;
  out.queue_hwm = static_cast<double>(t.queue_hwm);
  out.hit_rate = t.snapshot.hit_rate();
  out.refreshes_per_ue_s = static_cast<double>(t.snapshot.refreshes) / ue_s;
  out.cold_misses = static_cast<double>(t.snapshot.cold_misses);
  const std::uint64_t builds =
      t.snapshot.full_builds + t.snapshot.incremental_builds;
  out.incremental_frac =
      builds > 0 ? static_cast<double>(t.snapshot.incremental_builds) /
                       static_cast<double>(builds)
                 : 0.0;
  out.rx_sweeps_per_ue_s = static_cast<double>(t.snapshot.rx_sweeps) / ue_s;
  out.pair_sweeps = static_cast<double>(t.snapshot.pair_sweeps);
  out.ssb_obs_per_ue_s = static_cast<double>(t.ssb_observations) / ue_s;
  out.handovers_per_ue_s = static_cast<double>(t.handovers) / ue_s;
  out.ping_pong_rate = t.handovers > 0 ? static_cast<double>(t.ping_pongs) /
                                             static_cast<double>(t.handovers)
                                       : 0.0;
  out.rate_samples = static_cast<double>(t.rate_samples);

  st::SampleSet ms;
  std::size_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const std::string json =
        st::fleet::build_fleet_report(spec, result).to_json();
    ms.add(seconds_between(t0, Clock::now()) * 1e3);
    bytes = json.size();
  }
  out.report_ms = ms.median();
  out.report_kb = static_cast<double>(bytes) / 1024.0;
}

void fill_share_estimates(const FleetTotals& t, double serial_seconds,
                          bool decision_on, LayerReport& out) {
  if (serial_seconds <= 0.0) {
    return;
  }
  const double total_ns = serial_seconds * 1e9;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double rebuilds = n(t.snapshot.rebuilds());
  out.share_sim = n(t.events) * out.dispatch_ns / total_ns;
  out.share_mobility = rebuilds * out.pose_ns / total_ns;
  // Refreshes net of their pose query, receive sweeps on a current
  // snapshot, and pair sweeps net of the refresh best_pairs includes.
  out.share_phy =
      (rebuilds * std::max(0.0, out.refresh_ns - out.pose_ns) +
       n(t.snapshot.rx_sweeps) * out.best_rx_ns +
       n(t.snapshot.pair_sweeps) * std::max(0.0, out.sweep_ns - out.refresh_ns)) /
      total_ns;
  // One decision round per SSB observation bounds the layer from above.
  out.share_net = n(t.ssb_observations) *
                  (out.observe_ssb_ns + (decision_on ? out.decision_ns : 0.0)) /
                  total_ns;
  out.share_rate = n(t.rate_samples) * out.interference_ns / total_ns;
}

void emit_layer_metrics(const LayerReport& r, RunResult& result) {
  result.add("sim.events_per_ue_s", r.events_per_ue_s, "1/s");
  result.add("sim.queue_hwm", r.queue_hwm, "count");
  result.add("sim.dispatch_ns", r.dispatch_ns, "ns");
  result.add("sim.share_est", r.share_sim, "fraction");
  result.add("mobility.pose_ns", r.pose_ns, "ns");
  result.add("mobility.share_est", r.share_mobility, "fraction");
  result.add("phy.hit_rate", r.hit_rate, "fraction");
  result.add("phy.refreshes_per_ue_s", r.refreshes_per_ue_s, "1/s");
  result.add("phy.cold_misses", r.cold_misses, "count");
  result.add("phy.incremental_frac", r.incremental_frac, "fraction");
  result.add("phy.rx_sweeps_per_ue_s", r.rx_sweeps_per_ue_s, "1/s");
  result.add("phy.pair_sweeps", r.pair_sweeps, "count");
  result.add("phy.refresh_ns", r.refresh_ns, "ns");
  result.add("phy.sweep_ns", r.sweep_ns, "ns");
  result.add("phy.best_rx_ns", r.best_rx_ns, "ns");
  result.add("phy.share_est", r.share_phy, "fraction");
  result.add("net.ssb_obs_per_ue_s", r.ssb_obs_per_ue_s, "1/s");
  result.add("net.observe_ssb_ns", r.observe_ssb_ns, "ns");
  result.add("net.decision_ns", r.decision_ns, "ns");
  result.add("net.handovers_per_ue_s", r.handovers_per_ue_s, "1/s");
  result.add("net.ping_pong_rate", r.ping_pong_rate, "fraction");
  result.add("net.share_est", r.share_net, "fraction");
  result.add("rate.samples", r.rate_samples, "count");
  result.add("rate.interference_ns", r.interference_ns, "ns");
  result.add("rate.share_est", r.share_rate, "fraction");
  result.add("core.ue_run_ms.p50", r.ue_run_ms_p50, "ms");
  result.add("core.ue_run_ms.max", r.ue_run_ms_max, "ms");
  result.add("core.job_p99_ms", r.job_p99_ms, "ms");
  result.add("fleet.parallel_eff", r.parallel_eff, "fraction");
  result.add("obs.report_ms", r.report_ms, "ms");
  result.add("obs.report_kb", r.report_kb, "KiB");
  result.add("obs.frames", r.frames, "count");
  result.add("obs.frames_dropped", r.frames_dropped, "count");
  result.add("serve.decode_us", r.decode_us, "us");
  result.add("serve.submit_rtt_us.p50", r.submit_rtt_us_p50, "us");
  result.add("serve.submit_rtt_us.p99", r.submit_rtt_us_p99, "us");
  result.add("serve.queue_wait_ms.p50", r.queue_wait_ms_p50, "ms");
  result.add("serve.queue_wait_ms.p99", r.queue_wait_ms_p99, "ms");
  result.add("serve.run_ms.p50", r.run_ms_p50, "ms");
  result.add("serve.run_ms.p99", r.run_ms_p99, "ms");
  result.add("serve.e2e_ms.p50", r.e2e_ms_p50, "ms");
  result.add("serve.e2e_ms.p99", r.e2e_ms_p99, "ms");
  result.add("serve.delivery_ms.p50", r.delivery_ms_p50, "ms");
  result.add("serve.sched_lag_ms.p99", r.sched_lag_ms_p99, "ms");
  result.add("serve.shed", r.shed, "count");
  result.add("serve.failed", r.failed, "count");
  result.add("host.probe_ms", r.probe_ms, "ms");
  result.add("trace.overhead_frac", r.trace_overhead_frac, "fraction");
}

}  // namespace stbench
