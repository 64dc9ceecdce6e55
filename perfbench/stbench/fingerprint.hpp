// Output check of the fleet workloads: a fingerprint over every
// simulated statistic of a fleet run, which must repeat exactly across
// repetitions and thread counts (the engine's serial == parallel
// guarantee), and the fleet totals the per-layer counts are read from.
#pragma once

#include <cstdint>
#include <string>

#include "core/scenario_spec.hpp"
#include "fleet/engine.hpp"

namespace stbench {

/// Exact simulated counts of one fleet run, summed over its UEs.
struct FleetTotals {
  std::uint64_t events = 0;
  std::uint64_t queue_hwm = 0;
  std::uint64_t ssb_observations = 0;
  std::uint64_t handovers = 0;  ///< successful
  std::uint64_t ping_pongs = 0;
  std::uint64_t rate_samples = 0;
  double rate_bits = 0.0;
  st::net::SnapshotCacheStats snapshot;
  double ue_sim_seconds = 0.0;  ///< simulated seconds summed over UEs
};

[[nodiscard]] FleetTotals fleet_totals(const st::core::ScenarioSpec& spec,
                                       const st::fleet::FleetResult& result);

/// FNV-1a over each UE's event count, queue high-water mark, SSB
/// observations, handover records, ping-pongs, rate samples, bits and
/// SINR sum (which moves with any change in received power), and
/// snapshot-cache counters, in UE order. Wall-clock fields are left
/// out, so equal specs give equal fingerprints on any thread count.
[[nodiscard]] std::uint64_t fleet_fingerprint(
    const st::core::ScenarioSpec& spec, const st::fleet::FleetResult& result);

[[nodiscard]] std::string hex64(std::uint64_t v);

/// Compares fingerprints against a reference, counting what it saw.
class FingerprintCheck {
 public:
  explicit FingerprintCheck(std::uint64_t reference) : reference_(reference) {}

  /// True when `fingerprint` equals the reference.
  bool check(std::uint64_t fingerprint) {
    ++checked_;
    if (fingerprint != reference_) {
      ++mismatches_;
      return false;
    }
    return true;
  }
  [[nodiscard]] std::uint64_t reference() const noexcept { return reference_; }
  [[nodiscard]] std::uint64_t checked() const noexcept { return checked_; }
  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_;
  }

 private:
  std::uint64_t reference_;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

}  // namespace stbench
