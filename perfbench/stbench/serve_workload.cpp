#include "stbench/serve_workload.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/spec_json.hpp"
#include "fleet/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stbench/layers.hpp"
#include "stbench/spans.hpp"

namespace stbench {

namespace {

using st::json::Value;

// Two workers running one-thread fleets: busy threads (workers, the
// submitting connection, the stream and the generator) stay within a
// 4-vCPU host. A 1-UE, 2 s paper_walk job runs in about 3.5 ms; jobs
// this size keep the millisecond scheduling jitter of a shared host
// small against the job time. 150 jobs/s keeps the workers about 27%
// busy: at half of capacity the queueing tail amplified the host's
// speed swings, and the p99 moved 2x between runs.
constexpr std::size_t kWorkers = 2;
constexpr unsigned kFleetThreads = 1;
constexpr double kJobsPerSecond = 150.0;
constexpr std::int64_t kJobDurationMs = 2000;
constexpr std::uint64_t kJobUes = 1;
constexpr std::size_t kWarmupJobs = 150;
// Set-up passes; setup_s is their median. The first sets up the server
// the window runs on; the others follow the window, so the passes sample
// both ends of the run.
constexpr int kSetups = 5;
// The measured window is cut into sub-windows of 1000 jobs, ten of
// them beyond each sub-window's p99; a run reports the median of the
// sub-window percentiles, so one host stall moves one sub-window only.
constexpr std::size_t kWindowJobs = 1000;
constexpr std::size_t kSubscriberQueue = 65536;
constexpr int kSettleTimeoutMs = 60'000;

Value job_doc(std::uint64_t seed) {
  Value overrides = Value::object();
  overrides.set("duration_ms", Value::number(static_cast<double>(kJobDurationMs)));
  overrides.set("n_ues", Value::unsigned_integer(kJobUes));
  Value job = Value::object();
  job.set("preset", Value::string("paper_walk"));
  job.set("seed", Value::unsigned_integer(seed));
  job.set("overrides", std::move(overrides));
  return job;
}

/// `p`-th percentile of `s`, or 0 for a run that collected no samples
/// (it then fails its checks rather than throwing).
double percentile_or_zero(const st::SampleSet& s, double p) {
  return s.empty() ? 0.0 : s.percentile(p);
}

bool response_ok(const Value& v) {
  const Value* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

bool is_shed(const Value& v) {
  const Value* error = v.find("error");
  const Value* code = error != nullptr ? error->find("code") : nullptr;
  return code != nullptr && code->string_or("") == "shed";
}

/// A histogram digest's exact sum (mean × count) from a `stats` response.
double latency_sum(const Value& stats, const char* name) {
  const Value* s = stats.find("stats");
  const Value* lat = s != nullptr ? s->find("latency") : nullptr;
  const Value* h = lat != nullptr ? lat->find(name) : nullptr;
  if (h == nullptr) {
    return 0.0;
  }
  const Value* mean = h->find("mean");
  const Value* count = h->find("count");
  return (mean != nullptr ? mean->double_or(0.0) : 0.0) *
         static_cast<double>(count != nullptr ? count->u64_or(0) : 0);
}

double latency_field(const Value& stats, const char* name, const char* field) {
  const Value* s = stats.find("stats");
  const Value* lat = s != nullptr ? s->find("latency") : nullptr;
  const Value* h = lat != nullptr ? lat->find(name) : nullptr;
  const Value* f = h != nullptr ? h->find(field) : nullptr;
  return f != nullptr ? f->double_or(0.0) : 0.0;
}

/// The `events` subscriber: records the arrival time of every `done`
/// frame and the id of every failed/cancelled job, on its own thread.
class Subscriber {
 public:
  Subscriber() = default;
  ~Subscriber() { stop(); }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  bool start(const std::string& socket_path) {
    if (!client_.connect(socket_path) ||
        !response_ok(client_.subscribe("events", 0, false, kSubscriberQueue))) {
      return false;
    }
    thread_ = std::thread([this] { loop(); });
    return true;
  }

  /// Jobs that reached a terminal frame so far.
  [[nodiscard]] std::uint64_t terminal() const {
    return terminal_.load(std::memory_order_acquire);
  }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
    client_.close();
  }

  // Read only after stop().
  std::vector<std::pair<std::uint64_t, Clock::time_point>> done;
  std::vector<std::uint64_t> failed;
  std::uint64_t frames = 0;
  std::uint64_t dropped = 0;

 private:
  void loop() {
    bool closed = false;
    while (!stop_.load(std::memory_order_acquire) && !closed) {
      const auto frame = client_.next_frame(20, &closed);
      if (!frame.has_value()) {
        continue;
      }
      const auto arrival = Clock::now();
      ++frames;
      if (const Value* d = frame->find("dropped")) {
        dropped += d->u64_or(0);
      }
      const Value* data = frame->find("data");
      const Value* event = data != nullptr ? data->find("event") : nullptr;
      const Value* id = data != nullptr ? data->find("id") : nullptr;
      if (event == nullptr || id == nullptr) {
        continue;
      }
      const std::string_view kind = event->string_or("");
      if (kind == "done") {
        done.emplace_back(id->u64_or(0), arrival);
      } else if (kind == "failed" || kind == "cancelled") {
        failed.push_back(id->u64_or(0));
      } else {
        continue;
      }
      terminal_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  st::serve::Client client_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> terminal_{0};
  std::thread thread_;
};

/// One server with its two connections.
struct Rig {
  std::unique_ptr<st::serve::Server> server;
  st::serve::Client client;
  Subscriber subscriber;
};

/// Block until the subscriber has seen `target` terminal frames.
bool settle(const Subscriber& sub, std::uint64_t target) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(kSettleTimeoutMs);
  while (sub.terminal() < target) {
    if (Clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Set-up: decode a job, start the server, connect the submitter and the
/// subscriber, and push the warm-up jobs through.
std::unique_ptr<Rig> set_up(const std::string& socket_path, std::uint64_t seed) {
  (void)st::core::spec_from_job_json(job_doc(seed));
  auto rig = std::make_unique<Rig>();
  st::serve::ServerConfig config;
  config.socket_path = socket_path;
  config.workers = kWorkers;
  config.fleet_threads = kFleetThreads;
  config.queue_capacity = 8192;
  rig->server = std::make_unique<st::serve::Server>(config);
  rig->server->start();
  if (!rig->client.connect(socket_path) ||
      !rig->subscriber.start(socket_path)) {
    throw std::runtime_error("cannot connect to " + socket_path);
  }
  // Warm-up at capacity but without a queue: at most kWorkers jobs in
  // flight, so no warm-up job inflates the server's latency histograms.
  std::uint64_t accepted = 0;
  for (std::size_t k = 0; k < kWarmupJobs; ++k) {
    while (accepted - rig->subscriber.terminal() >= kWorkers) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    accepted += response_ok(rig->client.submit(job_doc(seed + k))) ? 1U : 0U;
  }
  if (accepted != kWarmupJobs || !settle(rig->subscriber, accepted)) {
    throw std::runtime_error("warm-up jobs did not complete");
  }
  return rig;
}

}  // namespace

void ServeLedger::settle(const std::vector<std::uint64_t>& accepted_ids,
                         const std::vector<std::uint64_t>& done_ids,
                         const std::vector<std::uint64_t>& failed_ids) {
  const std::unordered_set<std::uint64_t> mine(accepted_ids.begin(),
                                               accepted_ids.end());
  std::unordered_set<std::uint64_t> seen;
  for (const std::uint64_t id : done_ids) {
    if (mine.count(id) == 0) {
      ++strays;
    } else if (!seen.insert(id).second) {
      ++duplicates;
    }
  }
  done = seen.size();
  failed = 0;
  for (const std::uint64_t id : failed_ids) {
    failed += mine.count(id);
  }
}

RunResult run_serve_workload(const Options& opt) {
  SpanRecorder spans;
  LayerReport layers;
  st::SampleSet probes;
  probes.add(host_probe_ms());
  std::filesystem::create_directories(opt.out_dir);
  const std::string socket_path =
      opt.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  // Job seeds: warm-up jobs first, then the measured schedule.
  const std::uint64_t seed_base = 1'000'000 * (opt.seed + 1);

  st::SampleSet setup_s;
  const auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<Rig> r = set_up(socket_path, seed_base);
    setup_s.add(seconds_between(t0, Clock::now()));
    return r;
  };
  std::unique_ptr<Rig> rig = timed_set_up();
  const std::uint64_t warm_terminal = rig->subscriber.terminal();

  // The open-loop schedule: job k is due at start + k × interval,
  // whether or not earlier jobs have finished.
  const Value stats_before = rig->client.stats();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kJobsPerSecond));
  const auto n_jobs = static_cast<std::size_t>(opt.seconds * kJobsPerSecond);
  std::vector<std::uint64_t> accepted_ids;
  struct Due {
    Clock::time_point at;
    std::size_t k;  // position in the schedule
  };
  std::unordered_map<std::uint64_t, Due> due_by_id;
  st::SampleSet lag_ms, rtt_us;
  ServeLedger ledger;
  const std::int64_t window_span = spans.begin("serve.window");
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t k = 0; k < n_jobs; ++k) {
    const auto due = start + interval * static_cast<std::int64_t>(k);
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    const Value response =
        rig->client.submit(job_doc(seed_base + kWarmupJobs + k));
    const auto answered = Clock::now();
    lag_ms.add(seconds_between(due, sent) * 1e3);
    rtt_us.add(seconds_between(sent, answered) * 1e6);
    ++ledger.submitted;
    if (response_ok(response)) {
      const std::uint64_t id = response.find("id")->u64_or(0);
      ++ledger.accepted;
      accepted_ids.push_back(id);
      due_by_id.emplace(id, Due{due, k});
      if (opt.trace) {
        spans.add({"serve.submit", spans.to_ns(sent), spans.to_ns(answered),
                   window_span, id});
      }
    } else if (is_shed(response)) {
      ++ledger.shed;
    } else {
      ++ledger.rejected;
    }
  }
  const double schedule_s = seconds_between(start, Clock::now());
  (void)settle(rig->subscriber, warm_terminal + ledger.accepted);
  spans.end(window_span);
  const Value stats_after = rig->client.stats();

  // Served == direct, on the first measured job: the served report's
  // handover and SSB totals must equal a direct run_fleet of its spec.
  bool served_matches = false;
  if (!accepted_ids.empty()) {
    const Value served = rig->client.result(accepted_ids.front());
    const st::core::ScenarioSpec spec =
        st::core::spec_from_job_json(job_doc(seed_base + kWarmupJobs));
    const st::fleet::FleetResult direct = st::fleet::run_fleet(spec, kFleetThreads);
    const st::obs::FleetReport report = st::fleet::build_fleet_report(spec, direct);
    const Value* rep = served.find("report");
    const Value* ho = rep != nullptr ? rep->find("handover") : nullptr;
    served_matches =
        ho != nullptr && ho->find("total") != nullptr &&
        ho->find("ssb_observations") != nullptr &&
        ho->find("total")->u64_or(0) == report.handovers_total &&
        ho->find("ssb_observations")->u64_or(0) == report.ssb_observations;
  }

  rig->subscriber.stop();
  Subscriber& sub = rig->subscriber;
  std::vector<std::uint64_t> done_ids;
  st::SampleSet latency_ms;
  const std::size_t n_windows = std::max<std::size_t>(1, n_jobs / kWindowJobs);
  std::vector<st::SampleSet> window_ms(n_windows);
  for (const auto& [id, arrival] : sub.done) {
    done_ids.push_back(id);
    const auto it = due_by_id.find(id);
    if (it != due_by_id.end()) {
      const double ms = seconds_between(it->second.at, arrival) * 1e3;
      latency_ms.add(ms);
      window_ms[std::min(it->second.k / kWindowJobs, n_windows - 1)].add(ms);
      if (opt.trace) {
        spans.add({"serve.job", spans.to_ns(it->second.at), spans.to_ns(arrival),
                   window_span, id});
      }
    }
  }
  st::SampleSet window_p50, window_p99;
  for (const st::SampleSet& w : window_ms) {
    window_p50.add(percentile_or_zero(w, 50.0));
    window_p99.add(percentile_or_zero(w, 99.0));
  }
  // The warm-up jobs' ids are not in accepted_ids; drop them before
  // reconciling so they do not count as strays.
  const std::uint64_t first_id =
      accepted_ids.empty() ? 0
                           : *std::min_element(accepted_ids.begin(), accepted_ids.end());
  done_ids.erase(std::remove_if(done_ids.begin(), done_ids.end(),
                                [&](std::uint64_t id) { return id < first_id; }),
                 done_ids.end());
  ledger.frames_dropped = sub.dropped;
  ledger.settle(accepted_ids, done_ids, sub.failed);

  // The generator must keep its schedule. A stall delays a few sends,
  // which then go out back to back and are still timed from their due
  // times; but if more than 5% of sends lag by over one interval, the
  // offered load itself dropped and the run is invalid.
  const double interval_ms = 1e3 / kJobsPerSecond;
  const double lag_p99 = percentile_or_zero(lag_ms, 99.0);
  const bool on_schedule =
      !lag_ms.empty() && lag_ms.percentile(95.0) <= interval_ms;

  // Worker-side simulation throughput: simulated UE-seconds of the done
  // jobs per second a worker spent running them.
  const double busy_s =
      (latency_sum(stats_after, "run_ms") - latency_sum(stats_before, "run_ms")) *
      1e-3;
  const double ue_sim_s = static_cast<double>(ledger.done * kJobUes) *
                          static_cast<double>(kJobDurationMs) * 1e-3;
  rig.reset();
  for (int k = 1; k < (opt.trace ? 1 : kSetups); ++k) {
    timed_set_up().reset();  // torn down outside the timed region
  }
  // The probe forks, so it runs once the servers' threads are gone.
  probes.add(host_probe_ms());

  std::printf(
      "serve_open_loop seed=%llu rate=%.0f/s jobs=%llu accepted=%llu "
      "done=%llu shed=%llu failed=%llu missing=%llu dup=%llu stray=%llu "
      "frames=%llu dropped=%llu served_matches=%d\n",
      static_cast<unsigned long long>(opt.seed), kJobsPerSecond,
      static_cast<unsigned long long>(ledger.submitted),
      static_cast<unsigned long long>(ledger.accepted),
      static_cast<unsigned long long>(ledger.done),
      static_cast<unsigned long long>(ledger.shed),
      static_cast<unsigned long long>(ledger.failed),
      static_cast<unsigned long long>(ledger.missing()),
      static_cast<unsigned long long>(ledger.duplicates),
      static_cast<unsigned long long>(ledger.strays),
      static_cast<unsigned long long>(sub.frames),
      static_cast<unsigned long long>(sub.dropped), served_matches ? 1 : 0);
  std::printf(
      "  busy_frac=%.3f schedule_s=%.3f lag_ms p50=%.3f p99=%.3f max=%.3f (interval %.3f) "
      "job_ms p50=%.3f p99=%.3f windows=%zu setup_s=%.4f probe_ms=%.1f/%.1f\n",
      busy_s / (static_cast<double>(kWorkers) * schedule_s), schedule_s,
      percentile_or_zero(lag_ms, 50.0), lag_p99, lag_ms.max(), interval_ms,
      percentile_or_zero(latency_ms, 50.0), percentile_or_zero(latency_ms, 99.0),
      n_windows, setup_s.median(), probes.samples().front(),
      probes.samples().back());

  RunResult result;
  result.attempted = ledger.submitted;
  result.failed = ledger.failed_jobs();
  result.correct = ledger.conserved() && on_schedule && served_matches;
  if (!opt.trace) {
    result.add("ue_sim_s_per_wall_s", busy_s > 0.0 ? ue_sim_s / busy_s : 0.0,
               "s/s");
    result.add("job_p50_ms", window_p50.median(), "ms");
    result.add("setup_s", setup_s.median(), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Per-layer: the served path from the client's and the server's view,
  // plus the physics of one job's spec measured as on the fleet
  // workloads.
  layers.frames = static_cast<double>(sub.frames);
  layers.frames_dropped = static_cast<double>(sub.dropped);
  layers.submit_rtt_us_p50 = percentile_or_zero(rtt_us, 50.0);
  layers.submit_rtt_us_p99 = percentile_or_zero(rtt_us, 99.0);
  layers.queue_wait_ms_p50 = latency_field(stats_after, "queue_wait_ms", "p50");
  layers.queue_wait_ms_p99 = latency_field(stats_after, "queue_wait_ms", "p99");
  layers.run_ms_p50 = latency_field(stats_after, "run_ms", "p50");
  layers.run_ms_p99 = latency_field(stats_after, "run_ms", "p99");
  layers.e2e_ms_p50 = latency_field(stats_after, "e2e_ms", "p50");
  layers.e2e_ms_p99 = latency_field(stats_after, "e2e_ms", "p99");
  layers.delivery_ms_p50 =
      percentile_or_zero(latency_ms, 50.0) - layers.e2e_ms_p50;
  layers.sched_lag_ms_p99 = lag_p99;
  layers.job_p99_ms = window_p99.median();
  layers.shed = static_cast<double>(ledger.shed);
  layers.failed = static_cast<double>(ledger.failed_jobs());
  layers.probe_ms = probes.median();

  const std::string job_json = job_doc(seed_base + kWarmupJobs).dump();
  const st::core::ScenarioSpec spec =
      st::core::spec_from_job_json(st::json::parse(job_json));
  const ScopedSpan root(&spans, "layer_costs");
  const st::fleet::FleetResult one = st::fleet::run_fleet(spec, kFleetThreads);
  fill_layer_counts(spec, one, layers);
  const FleetTotals totals = fleet_totals(spec, one);
  layers.dispatch_ns = time_dispatch_ns(totals.queue_hwm);
  measure_layer_costs(spec, totals, job_json, spans, root.index(), layers);
  st::SampleSet ue_ms;
  for (int i = 0; i < 50; ++i) {
    const auto t0 = Clock::now();
    (void)st::fleet::run_fleet(spec, kFleetThreads);
    ue_ms.add(seconds_between(t0, Clock::now()) * 1e3);
  }
  layers.ue_run_ms_p50 = ue_ms.median();
  layers.ue_run_ms_max = ue_ms.max();
  layers.parallel_eff = 1.0;  // one-thread fleets
  fill_share_estimates(totals, layers.ue_run_ms_p50 * 1e-3, false, layers);
  emit_layer_metrics(layers, result);
  const std::string path = opt.out_dir + "/serve_open_loop-seed" +
                           std::to_string(opt.seed) + ".spans.jsonl";
  if (!spans.write_jsonl(path)) {
    std::fprintf(stderr, "stbench: cannot write %s\n", path.c_str());
  }
  return result;
}

}  // namespace stbench
