#include "stbench/fleet_workload.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/scenario.hpp"
#include "core/spec_json.hpp"
#include "fleet/engine.hpp"
#include "stbench/fingerprint.hpp"
#include "stbench/layers.hpp"
#include "stbench/spans.hpp"

namespace stbench {

namespace {

using st::json::Value;

// Fleet shapes. Many short UE runs rather than few long ones: the cost
// of a UE depends on its trajectory, so 120 UEs per fleet keep the
// seed-to-seed spread of the fleet total small. One repetition takes
// about 0.3 s on a 4-vCPU host, so a 30 s run medians ~100 of them and
// pools about 10 000 per-UE run times.
constexpr std::size_t kPaperMixUes = 120;
constexpr std::int64_t kPaperMixDurationMs = 2'500;
constexpr unsigned kPaperMixThreads = 2;
constexpr std::size_t kGridUes = 120;
constexpr std::int64_t kGridDurationMs = 2'000;
constexpr unsigned kGridThreads = 2;

// Set-up passes; setup_s is their median. The first comes before the
// timed repetitions and the others are spread evenly between them, so a
// host phase at the start of a run does not move them all.
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinReps = 5;  // timed repetitions, at least

Value profile(const char* mobility, bool decision) {
  Value ue = Value::object();
  ue.set("mobility", Value::string(mobility));
  if (decision) {
    Value policy = Value::object();
    policy.set("enabled", Value::boolean(true));
    ue.set("handover_policy", std::move(policy));
  }
  return ue;
}

/// Per-UE run times of one fleet repetition, taken from outside through
/// RunControl::on_ue_complete: the hook fires on the worker thread that
/// finished a UE, so a UE's time is the gap to the previous completion on
/// the same thread (or to the repetition's start). With a span recorder,
/// the hook also records each UE run as a span under `parent` as it
/// completes, on the worker thread, as in-program tracing would.
class CompletionClock {
 public:
  CompletionClock(std::size_t n_ues, SpanRecorder* spans, std::int64_t parent,
                  std::uint64_t group)
      : slots_(n_ues), spans_(spans), parent_(parent), group_(group) {}

  st::fleet::RunControl control() {
    st::fleet::RunControl c;
    c.on_ue_complete = [this](std::size_t completed, std::size_t) {
      const Clock::time_point now = Clock::now();
      const std::thread::id thread = std::this_thread::get_id();
      slots_[completed - 1] = {now, thread};
      if (spans_ != nullptr) {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = last_.try_emplace(thread, start_).first;
        spans_->add({"core.run_scenario_ue", spans_->to_ns(it->second),
                     spans_->to_ns(now), parent_, group_});
        it->second = now;
      }
    };
    return c;
  }

  void start() { start_ = Clock::now(); }

  /// Add this repetition's per-UE times [ms] to `out`.
  void collect(st::SampleSet& out) const {
    std::map<std::thread::id, std::vector<Clock::time_point>> by_thread;
    for (const Slot& s : slots_) {
      by_thread[s.thread].push_back(s.at);
    }
    for (auto& [thread, times] : by_thread) {
      std::sort(times.begin(), times.end());
      Clock::time_point prev = start_;
      for (const Clock::time_point t : times) {
        out.add(seconds_between(prev, t) * 1e3);
        prev = t;
      }
    }
  }

 private:
  struct Slot {
    Clock::time_point at;
    std::thread::id thread;
  };
  std::vector<Slot> slots_;
  SpanRecorder* spans_;
  std::int64_t parent_;
  std::uint64_t group_;
  Clock::time_point start_;
  std::mutex mutex_;
  std::map<std::thread::id, Clock::time_point> last_;  // guarded by mutex_
};

struct Reps {
  st::SampleSet rate;   // UE-sim-s per wall-s, one per repetition
  st::SampleSet wall;   // s, one per repetition
  st::SampleSet ue_ms;  // per-UE run times, pooled
};

/// One timed repetition, checked against the reference fingerprint.
/// With a span recorder, the repetition and each UE run in it are spans
/// under `parent`, and recording them lies inside the timed region, so
/// traced and untraced repetitions differ by the cost of tracing only.
void timed_rep(const st::core::ScenarioSpec& spec, unsigned threads,
               double ue_sim_seconds, FingerprintCheck& check,
               SpanRecorder* spans, std::int64_t parent,
               std::uint64_t& rep_counter, Reps& reps) {
  const std::uint64_t rep = rep_counter++;
  const auto t0 = Clock::now();
  const std::int64_t rep_span =
      spans != nullptr ? spans->begin("fleet.run_fleet", parent, rep) : -1;
  CompletionClock clock(spec.ues.size(), spans, rep_span, rep);
  const st::fleet::RunControl control = clock.control();
  clock.start();
  const st::fleet::FleetResult r = st::fleet::run_fleet(spec, threads, control);
  if (spans != nullptr) {
    spans->end(rep_span);
  }
  const double wall = seconds_between(t0, Clock::now());
  clock.collect(reps.ue_ms);
  reps.rate.add(ue_sim_seconds / wall);
  reps.wall.add(wall);
  check.check(fleet_fingerprint(spec, r));
}

Clock::time_point deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

}  // namespace

bool is_fleet_workload(const std::string& name) {
  return name == "fleet_paper_mix" || name == "fleet_grid_loaded";
}

FleetWorkload fleet_workload(const std::string& name, std::uint64_t seed) {
  FleetWorkload w;
  w.name = name;
  Value job = Value::object();
  Value overrides = Value::object();
  Value ues = Value::array();
  if (name == "fleet_paper_mix") {
    // bench_fleet's default fleet: the three paper profiles on a 3-cell
    // row at the default inter-site distance, no load, no decision layer.
    w.threads = kPaperMixThreads;
    job.set("preset", Value::string("paper_vehicular"));
    overrides.set("cells", Value::unsigned_integer(3));
    overrides.set("duration_ms",
                  Value::number(static_cast<double>(kPaperMixDurationMs)));
    const char* kinds[] = {"human_walk", "rotation", "vehicular"};
    for (std::size_t i = 0; i < kPaperMixUes; ++i) {
      ues.push_back(profile(kinds[i % 3], false));
    }
  } else if (name == "fleet_grid_loaded") {
    // grid_walk's 3×3 grid and graded load; its walker alternates with
    // edge_ping_pong's shuttle, both with the decision layer on.
    w.threads = kGridThreads;
    job.set("preset", Value::string("grid_walk"));
    overrides.set("duration_ms",
                  Value::number(static_cast<double>(kGridDurationMs)));
    for (std::size_t i = 0; i < kGridUes; ++i) {
      ues.push_back(profile(i % 2 == 0 ? "human_walk" : "ping_pong", true));
    }
  } else {
    throw std::invalid_argument("unknown fleet workload: " + name);
  }
  overrides.set("ues", std::move(ues));
  job.set("seed", Value::unsigned_integer(1000 + seed));
  job.set("overrides", std::move(overrides));
  w.job_json = job.dump();
  return w;
}

RunResult run_fleet_workload(const FleetWorkload& w, const Options& opt) {
  SpanRecorder spans;
  SpanRecorder* const trace = opt.trace ? &spans : nullptr;
  const std::int64_t run_span = spans.begin("run");
  LayerReport layers;
  st::SampleSet probes;
  probes.add(host_probe_ms());

  // Set-up: decode the job, build the deployment and run the warm-up
  // pass.
  st::SampleSet setup_s;
  st::core::ScenarioSpec spec;
  st::fleet::FleetResult warm;
  const auto set_up = [&] {
    const ScopedSpan setup_span(trace, "setup", run_span);
    const auto t0 = Clock::now();
    spec = st::core::spec_from_job_json(st::json::parse(w.job_json));
    warm = st::fleet::run_fleet(spec, w.threads);
    setup_s.add(seconds_between(t0, Clock::now()));
  };
  set_up();
  const FleetTotals totals = fleet_totals(spec, warm);
  FingerprintCheck check(fleet_fingerprint(spec, warm));
  std::uint64_t rep_counter = 0;

  RunResult result;
  Reps reps;
  st::fleet::FleetResult serial;
  if (!opt.trace) {
    const auto start = Clock::now();
    const auto end = deadline(opt.seconds);
    while (reps.rate.count() < kMinReps || Clock::now() < end) {
      const double fraction = static_cast<double>(setup_s.count()) /
                              static_cast<double>(kSetups);
      if (setup_s.count() < kSetups &&
          seconds_between(start, Clock::now()) >= fraction * opt.seconds) {
        set_up();  // a later pass must reproduce the first one's outputs
        check.check(fleet_fingerprint(spec, warm));
      }
      timed_rep(spec, w.threads, totals.ue_sim_seconds, check, nullptr, -1,
                rep_counter, reps);
    }
    serial = st::fleet::run_fleet(spec, 1);
  } else {
    // Untraced and traced repetitions alternate, so host drift hits both
    // alike; the difference in throughput is the cost of recording spans.
    Reps traced;
    const auto end = deadline(opt.seconds * 0.5);
    while (traced.rate.count() < kMinReps || Clock::now() < end) {
      timed_rep(spec, w.threads, totals.ue_sim_seconds, check, nullptr, -1,
                rep_counter, reps);
      timed_rep(spec, w.threads, totals.ue_sim_seconds, check, &spans,
                run_span, rep_counter, traced);
    }
    layers.trace_overhead_frac = 1.0 - traced.rate.median() / reps.rate.median();
    st::SampleSet ue_times = reps.ue_ms;
    ue_times.add_all(traced.ue_ms.samples());
    layers.job_p99_ms = ue_times.percentile(99.0);

    // Serial per-UE pass: core::run_scenario_ue timed call by call. Its
    // results form the threads=1 reference run.
    const std::int64_t pass = spans.begin("serial_pass", run_span);
    const st::net::Deployment deployment = st::core::make_deployment(spec);
    st::SampleSet ue_ms;
    double serial_s = 0.0;
    for (std::size_t ue = 0; ue < spec.ues.size(); ++ue) {
      const std::int64_t t0 = spans.now_ns();
      serial.ue_results.push_back(st::core::run_scenario_ue(spec, ue, deployment));
      const std::int64_t t1 = spans.now_ns();
      spans.add({"core.run_scenario_ue.serial", t0, t1, pass, ue});
      ue_ms.add(static_cast<double>(t1 - t0) * 1e-6);
      serial_s += static_cast<double>(t1 - t0) * 1e-9;
    }
    spans.end(pass);
    layers.ue_run_ms_p50 = ue_ms.median();
    layers.ue_run_ms_max = ue_ms.max();
    layers.parallel_eff =
        serial_s / (static_cast<double>(w.threads) * reps.wall.median());

    const ScopedSpan layer_span(&spans, "layer_costs", run_span);
    fill_layer_counts(spec, warm, layers);
    layers.dispatch_ns = time_dispatch_ns(totals.queue_hwm);
    measure_layer_costs(spec, totals, w.job_json, spans, layer_span.index(),
                        layers);
    fill_share_estimates(totals, serial_s,
                         layers.decision_ns > 0.0, layers);
  }
  // The threads=1 reference must match every multi-threaded run.
  const bool serial_ok = check.check(fleet_fingerprint(spec, serial));
  probes.add(host_probe_ms());

  const std::string fp = hex64(check.reference());
  std::filesystem::create_directories(opt.out_dir);
  const std::string stem =
      opt.out_dir + "/" + w.name + "-seed" + std::to_string(opt.seed);
  write_text(stem + ".fingerprint", fp + "\n");
  std::printf(
      "%s seed=%llu threads=%u ues=%zu fingerprint=%s checked=%llu "
      "mismatches=%llu serial_ok=%d\n",
      w.name.c_str(), static_cast<unsigned long long>(opt.seed), w.threads,
      spec.ues.size(), fp.c_str(),
      static_cast<unsigned long long>(check.checked()),
      static_cast<unsigned long long>(check.mismatches()), serial_ok ? 1 : 0);
  std::printf(
      "  counts: events=%llu ssb_obs=%llu handovers=%llu ping_pongs=%llu "
      "rate_samples=%llu rate_bits=%.17g refreshes=%llu\n",
      static_cast<unsigned long long>(totals.events),
      static_cast<unsigned long long>(totals.ssb_observations),
      static_cast<unsigned long long>(totals.handovers),
      static_cast<unsigned long long>(totals.ping_pongs),
      static_cast<unsigned long long>(totals.rate_samples), totals.rate_bits,
      static_cast<unsigned long long>(totals.snapshot.refreshes));
  std::printf("  reps=%zu rate_median=%.2f rate_min=%.2f rate_max=%.2f "
              "setup_s=%.4f probe_ms=%.1f/%.1f\n",
              reps.rate.count(), reps.rate.median(), reps.rate.min(),
              reps.rate.max(), setup_s.median(), probes.samples().front(),
              probes.samples().back());

  // One operation is one UE run inside a checked fleet run; a fleet run
  // whose fingerprint differs fails all of its UEs.
  const std::uint64_t n_ues = spec.ues.size();
  result.attempted = check.checked() * n_ues;
  result.failed = check.mismatches() * n_ues;
  result.correct = check.mismatches() == 0;

  if (!opt.trace) {
    result.add("ue_sim_s_per_wall_s", reps.rate.median(), "s/s");
    result.add("job_p50_ms", reps.ue_ms.median(), "ms");
    result.add("setup_s", setup_s.median(), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    layers.probe_ms = probes.median();
    emit_layer_metrics(layers, result);
    spans.end(run_span);
    const std::string path = stem + ".spans.jsonl";
    if (!spans.write_jsonl(path)) {
      std::fprintf(stderr, "stbench: cannot write %s\n", path.c_str());
    }
    std::printf("  spans=%zu written to %s\n", spans.size(), path.c_str());
  }
  return result;
}

}  // namespace stbench
