// The shared bench harness: the batch runner and the option parser.
//
// bench::run_batch must give the same Aggregate for any thread count:
// each scenario run is a pure function of (spec, seed) and the runner
// absorbs the per-run results in seed order, so every Aggregate field —
// counts and raw samples alike — must be bit-identical. The bench
// binaries all route through this runner, so these tests are what keep
// their printed tables byte-stable regardless of thread count.
//
// bench::consume_options / parse_options is the one option parser of the
// bench and example binaries: both `--flag=value` and `--flag value`,
// switches, entries left in argv for the caller's own parsing, and exit
// status 2 for a missing value or an unknown option.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace st::bench {
namespace {

core::ScenarioSpec short_spec() {
  return core::SpecBuilder(core::preset::paper_walk())
      .duration(sim::Duration::milliseconds(2'000))
      .build();
}

void expect_identical(const SuccessRate& a, const SuccessRate& b) {
  EXPECT_EQ(a.trials(), b.trials());
  EXPECT_EQ(a.successes(), b.successes());
}

void expect_identical(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    // Bit-identical, not approximately equal: same runs, same order.
    EXPECT_EQ(a.samples()[i], b.samples()[i]) << "sample " << i;
  }
}

void expect_identical(const Aggregate& a, const Aggregate& b) {
  expect_identical(a.handover_success, b.handover_success);
  expect_identical(a.soft_fraction, b.soft_fraction);
  expect_identical(a.aligned_at_completion, b.aligned_at_completion);
  expect_identical(a.interruption_ms, b.interruption_ms);
  expect_identical(a.alignment_fraction, b.alignment_fraction);
  expect_identical(a.rach_attempts, b.rach_attempts);
}

TEST(RunBatch, BitIdenticalToSerial) {
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(5);
  const Aggregate serial = run_batch(spec, run_seeds, 1);
  // Force a real pool: the CI container may report one hardware thread,
  // which would silently select the serial path.
  const Aggregate parallel = run_batch(spec, run_seeds, 4);
  expect_identical(serial, parallel);
}

TEST(RunBatch, MoreThreadsThanSeedsStillIdentical) {
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(2);
  expect_identical(run_batch(spec, run_seeds, 1),
                   run_batch(spec, run_seeds, 8));
}

TEST(RunBatch, SingleThreadAbsorbsRunsInSeedOrder) {
  // The serial reference spelled out: one run_scenario per seed, absorbed
  // in seed order.
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(3);
  Aggregate by_hand;
  for (const std::uint64_t seed : run_seeds) {
    core::ScenarioSpec run_spec = spec;
    run_spec.seed = seed;
    by_hand.absorb(core::run_scenario(run_spec));
  }
  expect_identical(by_hand, run_batch(spec, run_seeds, 1));
}

TEST(RunBatch, RepeatedParallelRunsAreDeterministic) {
  const core::ScenarioSpec spec = short_spec();
  const std::vector<std::uint64_t> run_seeds = seeds(4);
  expect_identical(run_batch(spec, run_seeds, 3),
                   run_batch(spec, run_seeds, 4));
}

// ---- option parser ---------------------------------------------------------

/// A mutable argv over `args` (argv[0] included), as main() receives it.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) {
      pointers_.push_back(arg.data());
    }
    pointers_.push_back(nullptr);
    argc = static_cast<int>(storage_.size());
  }

  [[nodiscard]] char** argv() { return pointers_.data(); }
  /// The entries still in argv after a consume pass, argv[0] excluded.
  [[nodiscard]] std::vector<std::string> rest() const {
    return {pointers_.begin() + 1, pointers_.begin() + argc};
  }

  int argc = 0;

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(BenchOptions, BothSpellingsSetTheValue) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"bench", "--runs=7", "--preset=grid_walk"},
        std::vector<std::string>{"bench", "--runs", "7", "--preset",
                                 "grid_walk"}}) {
    Argv a(args);
    std::size_t runs = 0;
    std::string preset;
    parse_options(a.argc, a.argv(),
                  {{"--runs", store(runs)}, {"--preset", store(preset)}});
    EXPECT_EQ(runs, 7U) << args[1];
    EXPECT_EQ(preset, "grid_walk") << args[1];
  }
}

TEST(BenchOptions, StoreParsesTheTargetType) {
  Argv a({"bench", "--u=3", "--i=-4", "--d=2.5", "--s=x=y"});
  unsigned u = 0;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  parse_options(a.argc, a.argv(),
                {{"--u", store(u)},
                 {"--i", store(i)},
                 {"--d", store(d)},
                 {"--s", store(s)}});
  EXPECT_EQ(u, 3U);
  EXPECT_EQ(i, -4);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(s, "x=y");  // only the first '=' splits
}

TEST(BenchOptions, UnmatchedEntriesStayForTheCaller) {
  Argv a({"bench", "--trace-out", "t.json", "--runs", "3", "--runsx=1",
          "--report-out=r.json", "--benchmark_filter=x"});
  const ObsOptions obs = consume_obs_options(a.argc, a.argv());
  EXPECT_EQ(obs.trace_out, "t.json");
  EXPECT_EQ(obs.report_out, "r.json");
  // A longer flag that merely starts with a known one is not a match.
  EXPECT_EQ(a.rest(), (std::vector<std::string>{"--runs", "3", "--runsx=1",
                                                "--benchmark_filter=x"}));
}

TEST(BenchOptions, SwitchTakesNoValue) {
  Argv a({"bench", "--quiet", "--seed", "9"});
  bool quiet = false;
  consume_options(a.argc, a.argv(),
                  {{"--quiet", [&](const std::string&) { quiet = true; },
                    /*takes_value=*/false}});
  EXPECT_TRUE(quiet);
  EXPECT_EQ(a.rest(), (std::vector<std::string>{"--seed", "9"}));
}

TEST(BenchOptionsDeathTest, MissingValueExitsWithStatusTwo) {
  Argv a({"bench_x", "--runs"});
  std::size_t runs = 0;
  EXPECT_EXIT(consume_options(a.argc, a.argv(), {{"--runs", store(runs)}}),
              ::testing::ExitedWithCode(2),
              "bench_x: missing value for --runs");
}

TEST(BenchOptionsDeathTest, UnknownOptionExitsWithStatusTwo) {
  Argv a({"dir/bench_x", "--runs", "2", "--bogus"});
  std::size_t runs = 0;
  EXPECT_EXIT(parse_options(a.argc, a.argv(), {{"--runs", store(runs)}}),
              ::testing::ExitedWithCode(2),
              "bench_x: unknown option '--bogus'");
}

}  // namespace
}  // namespace st::bench
