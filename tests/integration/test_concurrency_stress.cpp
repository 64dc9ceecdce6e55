// Concurrency stress for the ThreadSanitizer CI job.
//
// Two concurrency surfaces are covered here: the parallel batch runner
// (bench/bench_util.hpp) and the obs layer, whose ownership model is one
// TraceRecorder per run, never shared across threads. These tests exist
// to give TSan *real interleavings* to chew on — they run under the plain
// build too (where they assert functional properties), but their reason
// to exist is `-fsanitize=thread`.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/scenario.hpp"
#include "obs/trace.hpp"

namespace st {
namespace {

// ---- run_batch -------------------------------------------------------------

core::ScenarioSpec short_spec() {
  return core::SpecBuilder(core::preset::paper_walk())
      .duration(sim::Duration::milliseconds(2'000))
      .build();
}

TEST(BatchRunnerStress, ParallelRunsMatchSerialUnderContention) {
  // More seeds than hardware threads so workers steal from the shared
  // atomic cursor repeatedly — the interleaving TSan needs to see.
  const std::vector<std::uint64_t> seeds = bench::seeds(12);
  const core::ScenarioSpec spec = short_spec();

  const bench::Aggregate serial = bench::run_batch(spec, seeds, 1);
  const bench::Aggregate parallel = bench::run_batch(spec, seeds, 4);

  EXPECT_EQ(serial.handover_success.successes(),
            parallel.handover_success.successes());
  EXPECT_EQ(serial.handover_success.trials(),
            parallel.handover_success.trials());
  EXPECT_EQ(serial.interruption_ms.count(), parallel.interruption_ms.count());
}

TEST(BatchRunnerStress, TracedParallelRunsAreIsolated) {
  // collect_trace adds a per-run TraceRecorder, MetricRegistry and
  // dispatch-timing hook to every worker: the whole obs recording path
  // runs concurrently across threads, one recorder per run (the
  // documented ownership model — nothing is shared).
  core::ScenarioSpec spec = short_spec();
  spec.collect_trace = true;
  spec.trace_buffer_capacity = 1 << 10;

  const std::vector<std::uint64_t> seeds = bench::seeds(8);
  const bench::Aggregate parallel = bench::run_batch(spec, seeds, 4);
  const bench::Aggregate serial = bench::run_batch(spec, seeds, 1);
  EXPECT_EQ(serial.handover_success.trials(),
            parallel.handover_success.trials());
}

TEST(BatchRunnerStress, OversubscribedPoolDrainsEverySeed) {
  // More workers than seeds: some workers find the cursor exhausted
  // immediately and exit — the short-lived-thread path. Every seed must
  // still be absorbed exactly once (bit-identical to serial).
  const std::vector<std::uint64_t> seeds = bench::seeds(3);
  const core::ScenarioSpec spec = short_spec();
  const bench::Aggregate parallel = bench::run_batch(spec, seeds, 16);
  const bench::Aggregate serial = bench::run_batch(spec, seeds, 1);
  EXPECT_EQ(serial.handover_success.trials(),
            parallel.handover_success.trials());
  EXPECT_EQ(serial.alignment_fraction.count(),
            parallel.alignment_fraction.count());
}

// ---- obs ring buffers -----------------------------------------------------

TEST(TraceBufferStress, PerThreadBuffersUnderConcurrentPushAndSnapshot) {
  // The obs ownership model: each run (thread) owns its recorder. Hammer
  // one wrapping ring per thread, snapshotting mid-stream, and verify
  // ordering and drop accounting per buffer.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEvents = 20'000;
  constexpr std::size_t kCapacity = 256;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&failures] {
      obs::TraceBuffer ring(kCapacity);
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        ring.push({.t = sim::Time::zero() +
                        sim::Duration::nanoseconds(
                            static_cast<std::int64_t>(i)),
                   .type = obs::TraceEventType::kRssSample,
                   .value = static_cast<double>(i)});
        if (i == kEvents / 2) {
          const std::vector<obs::TraceEvent> mid = ring.snapshot();
          if (mid.size() != kCapacity) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      const std::vector<obs::TraceEvent> snap = ring.snapshot();
      if (snap.size() != kCapacity ||
          ring.pushed() != kEvents ||
          ring.dropped() != kEvents - kCapacity) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Oldest-first, consecutive.
      for (std::size_t i = 1; i < snap.size(); ++i) {
        if (snap[i].value != snap[i - 1].value + 1.0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(EmitterStress, ConcurrentEmittersFanOutToPrivateSinks) {
  // One Emitter + full sink set per thread (trace recorder, protocol
  // counters) emitting concurrently and rendering its narrative — the
  // per-run recording the parallel batch runner executes, with nothing
  // shared between the threads.
  constexpr int kThreads = 6;
  constexpr std::uint64_t kEvents = 5'000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&failures] {
      obs::TraceRecorder recorder({.buffer_capacity = 1 << 8});
      obs::ProtocolCounters counters;
      const obs::Emitter emit{obs::Component::kSilentTracker,
                              {.trace = &recorder, .counters = &counters}};
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        emit.emit({.t = sim::Time::zero() +
                        sim::Duration::nanoseconds(
                            static_cast<std::int64_t>(i)),
                   .type = obs::TraceEventType::kStateTransition,
                   .label = "Tracking"});
        emit.count(obs::ProtocolCounter::kServingLost);
      }
      const obs::Narrative narrative = obs::render_narrative(recorder);
      if (recorder.total_events() != kEvents ||
          counters[obs::ProtocolCounter::kServingLost] != kEvents ||
          narrative.lines.size() != (1U << 8) ||
          narrative.dropped != kEvents - (1U << 8)) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace st
