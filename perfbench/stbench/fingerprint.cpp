#include "stbench/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "net/handover.hpp"

namespace stbench {

namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t ue_ping_pongs(const st::core::ScenarioSpec& spec, std::size_t ue,
                            const st::core::ScenarioResult& r) {
  return st::net::count_ping_pongs(
      r.handovers, spec.ues.at(ue).handover_policy.ping_pong_window);
}

}  // namespace

FleetTotals fleet_totals(const st::core::ScenarioSpec& spec,
                         const st::fleet::FleetResult& result) {
  FleetTotals t;
  for (std::size_t ue = 0; ue < result.ue_results.size(); ++ue) {
    const st::core::ScenarioResult& r = result.ue_results[ue];
    t.events += r.engine.events_executed;
    t.queue_hwm = std::max<std::uint64_t>(t.queue_hwm, r.engine.queue_depth_hwm);
    t.ssb_observations += r.ssb_observations;
    t.handovers += r.successful_handovers();
    t.ping_pongs += ue_ping_pongs(spec, ue, r);
    t.rate_samples += r.rate.samples;
    t.rate_bits += r.rate.bits;
    t.snapshot.merge(r.snapshot_cache);
    t.ue_sim_seconds += r.engine.sim_seconds;
  }
  return t;
}

std::uint64_t fleet_fingerprint(const st::core::ScenarioSpec& spec,
                                const st::fleet::FleetResult& result) {
  Fnv1a h;
  h.add(result.ue_results.size());
  for (std::size_t ue = 0; ue < result.ue_results.size(); ++ue) {
    const st::core::ScenarioResult& r = result.ue_results[ue];
    h.add(r.engine.events_executed);
    h.add(r.engine.queue_depth_hwm);
    h.add(r.ssb_observations);
    h.add(r.handovers.size());
    for (const st::net::HandoverRecord& rec : r.handovers) {
      h.add(rec.from);
      h.add(rec.to);
      h.add(rec.success ? 1U : 0U);
      h.add(rec.rach_attempts);
      h.add(static_cast<std::uint64_t>(rec.completed.ns()));
    }
    h.add(ue_ping_pongs(spec, ue, r));
    h.add(r.rate.samples);
    h.add(r.rate.served_samples);
    h.add_double(r.rate.bits);
    h.add_double(r.rate.sum_sinr_db);
    h.add(r.rate.sum_cqi);
    const st::net::SnapshotCacheStats& s = r.snapshot_cache;
    for (const std::uint64_t v :
         {s.hits, s.refreshes, s.cold_misses, s.invalidations, s.pair_sweeps,
          s.rx_sweeps, s.full_builds, s.incremental_builds}) {
      h.add(v);
    }
  }
  return h.value();
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace stbench
