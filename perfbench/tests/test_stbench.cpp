// The benchmark's own checks: the fleet fingerprint catches a changed
// simulation and ignores the thread count; the serve ledger counts shed,
// failed, missing and duplicated jobs; the result line is well formed.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "core/spec_json.hpp"
#include "fleet/engine.hpp"
#include "stbench/fingerprint.hpp"
#include "stbench/fleet_workload.hpp"
#include "stbench/harness.hpp"
#include "stbench/serve_workload.hpp"

namespace {

using st::core::ScenarioSpec;

/// A workload's own spec, cut down to `n_ues` UEs and one simulated
/// second so the test stays quick.
ScenarioSpec small_spec(const std::string& workload, std::size_t n_ues) {
  ScenarioSpec spec = st::core::spec_from_job_json(
      st::json::parse(stbench::fleet_workload(workload, 7).job_json));
  spec.ues.resize(n_ues);
  spec.duration = st::sim::Duration::milliseconds(1'000);
  return spec;
}

std::uint64_t fingerprint_of(const ScenarioSpec& spec, unsigned threads) {
  return stbench::fleet_fingerprint(spec, st::fleet::run_fleet(spec, threads));
}

TEST(Fingerprint, RepeatsAcrossThreadCounts) {
  for (const char* workload : {"fleet_paper_mix", "fleet_grid_loaded"}) {
    const ScenarioSpec spec = small_spec(workload, 6);
    stbench::FingerprintCheck check(fingerprint_of(spec, 1));
    EXPECT_TRUE(check.check(fingerprint_of(spec, 1))) << workload;
    EXPECT_TRUE(check.check(fingerprint_of(spec, 2))) << workload;
    EXPECT_TRUE(check.check(fingerprint_of(spec, 3))) << workload;
    EXPECT_EQ(check.mismatches(), 0U);
  }
}

TEST(Fingerprint, RejectsPerturbedSpec) {
  const ScenarioSpec spec = small_spec("fleet_paper_mix", 6);
  stbench::FingerprintCheck check(fingerprint_of(spec, 1));

  ScenarioSpec slower = spec;
  slower.ues[0].walk_speed_mps += 0.2;
  EXPECT_FALSE(check.check(fingerprint_of(slower, 2)));

  ScenarioSpec reseeded = spec;
  reseeded.seed += 1;
  EXPECT_FALSE(check.check(fingerprint_of(reseeded, 2)));

  ScenarioSpec loaded = spec;
  loaded.cell_load = {0.0, 0.5, 0.5};
  EXPECT_FALSE(check.check(fingerprint_of(loaded, 2)));

  EXPECT_EQ(check.checked(), 3U);
  EXPECT_EQ(check.mismatches(), 3U);
}

TEST(Workloads, SeedChangesInputsOnly) {
  const auto a = stbench::fleet_workload("fleet_grid_loaded", 1);
  const auto b = stbench::fleet_workload("fleet_grid_loaded", 2);
  EXPECT_NE(a.job_json, b.job_json);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.job_json, stbench::fleet_workload("fleet_grid_loaded", 1).job_json);

  const ScenarioSpec grid =
      st::core::spec_from_job_json(st::json::parse(a.job_json));
  EXPECT_EQ(grid.n_cells, 9U);
  ASSERT_EQ(grid.cell_load.size(), 9U);
  EXPECT_GT(grid.cell_load.back(), 0.0);
  for (const st::core::UeProfile& ue : grid.ues) {
    EXPECT_TRUE(ue.handover_policy.enabled);
  }
  const ScenarioSpec mix = st::core::spec_from_job_json(
      st::json::parse(stbench::fleet_workload("fleet_paper_mix", 1).job_json));
  EXPECT_EQ(mix.n_cells, 3U);
  EXPECT_TRUE(mix.cell_load.empty());
  for (const st::core::UeProfile& ue : mix.ues) {
    EXPECT_FALSE(ue.handover_policy.enabled);
  }
  EXPECT_THROW((void)stbench::fleet_workload("nope", 1), std::invalid_argument);
}

stbench::ServeLedger ledger_of(std::uint64_t submitted,
                               const std::vector<std::uint64_t>& accepted,
                               const std::vector<std::uint64_t>& done,
                               const std::vector<std::uint64_t>& failed) {
  stbench::ServeLedger ledger;
  ledger.submitted = submitted;
  ledger.accepted = accepted.size();
  ledger.settle(accepted, done, failed);
  return ledger;
}

TEST(ServeLedger, AllDoneIsConserved) {
  const auto ledger = ledger_of(3, {1, 2, 3}, {3, 1, 2}, {});
  EXPECT_TRUE(ledger.conserved());
  EXPECT_EQ(ledger.done, 3U);
  EXPECT_EQ(ledger.failed_jobs(), 0U);
}

TEST(ServeLedger, ShedAndFailedJobsCountAsFailed) {
  auto ledger = ledger_of(4, {1, 2, 3}, {1, 2}, {3});
  ledger.shed = 1;
  EXPECT_TRUE(ledger.conserved());  // 4 == 2 done + 1 shed + 1 failed
  EXPECT_EQ(ledger.failed_jobs(), 2U);
}

TEST(ServeLedger, MissingJobFailsConservation) {
  const auto ledger = ledger_of(3, {1, 2, 3}, {1, 2}, {});
  EXPECT_EQ(ledger.missing(), 1U);
  EXPECT_EQ(ledger.failed_jobs(), 1U);
  EXPECT_FALSE(ledger.conserved());
}

TEST(ServeLedger, DuplicateOrStrayDoneFailsConservation) {
  const auto dup = ledger_of(2, {1, 2}, {1, 2, 2}, {});
  EXPECT_EQ(dup.duplicates, 1U);
  EXPECT_EQ(dup.done, 2U);
  EXPECT_FALSE(dup.conserved());

  const auto stray = ledger_of(2, {1, 2}, {1, 2, 9}, {});
  EXPECT_EQ(stray.strays, 1U);
  EXPECT_FALSE(stray.conserved());
}

TEST(ServeLedger, DroppedFrameFailsConservation) {
  auto ledger = ledger_of(2, {1, 2}, {1, 2}, {});
  ledger.frames_dropped = 1;
  EXPECT_FALSE(ledger.conserved());
}

TEST(Harness, ResultLineHasTheFourKeys) {
  stbench::RunResult r;
  r.attempted = 10;
  r.failed = 1;
  r.correct = false;
  r.add("latency_ms", 1.0 / 3.0, "ms");
  const st::json::Value v = st::json::parse(r.to_json());
  EXPECT_FALSE(v.find("correct")->as_bool());
  EXPECT_EQ(v.find("attempted")->as_u64(), 10U);
  EXPECT_EQ(v.find("failed")->as_u64(), 1U);
  const st::json::Value* m = v.find("metrics")->find("latency_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->find("value")->as_double(), 1.0 / 3.0);
  EXPECT_EQ(m->find("unit")->as_string(), "ms");
}

}  // namespace
