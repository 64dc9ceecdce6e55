// Human-body blockage of the line-of-sight path.
//
// At 60 GHz a person crossing the LOS attenuates it by 15–25 dB with
// onset/decay ramps of roughly 100 ms (measured repeatedly in the 60 GHz
// literature). Blockage is the event that actually severs the serving link
// at cell edge in the paper's experiments: path loss alone degrades
// smoothly, but a blockage drop on top of an already-marginal link is what
// forces the cell switch. Events arrive as a Poisson process; the whole
// event schedule is drawn up-front from a seeded RNG so a run is a pure
// function of its seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/time.hpp"

namespace st::phy {

struct BlockageConfig {
  double rate_per_s = 0.05;          ///< event arrival rate
  double mean_duration_s = 0.6;     ///< exponential mean of the flat phase
  double mean_attenuation_db = 20.0;
  double attenuation_sigma_db = 3.0;
  double ramp_s = 0.1;              ///< linear onset/decay duration
};

/// Constancy interval of the blockage attenuation around one instant:
/// `attenuation_db` holds for every t in [from, until). Gaps between
/// events and the flat phase of an event yield wide windows; on a ramp
/// the value changes every nanosecond, so the window degenerates to the
/// queried instant. Lets snapshot rebuilds skip the event-list walk for
/// as long as the last answer provably still holds.
struct BlockageWindow {
  double attenuation_db = 0.0;
  sim::Time from;   ///< inclusive
  sim::Time until;  ///< exclusive
};

class BlockageProcess {
 public:
  /// Pre-draws all events with onset in [0, horizon).
  BlockageProcess(const BlockageConfig& config, sim::Duration horizon,
                  std::uint64_t seed);

  /// Total LOS attenuation [dB] at time `t` (0 when unblocked). Ramps make
  /// this continuous, so a 3 dB-drop detector sees a realistic slope.
  [[nodiscard]] double attenuation_db(sim::Time t) const noexcept;

  /// The attenuation at `t` together with the interval over which that
  /// value is constant. window(t).attenuation_db == attenuation_db(t).
  [[nodiscard]] BlockageWindow window(sim::Time t) const noexcept;

  [[nodiscard]] std::size_t event_count() const noexcept {
    return events_.size();
  }

  struct Event {
    sim::Time onset;        ///< start of the rising ramp
    sim::Duration flat;     ///< duration at full attenuation
    sim::Duration ramp;     ///< rise time == fall time
    double attenuation_db;  ///< peak attenuation
  };

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<Event> events_;
};

}  // namespace st::phy
