// Base-station model.
//
// A base station is deliberately thin: a fixed pose, a transmit codebook
// it sweeps during SSB bursts on its own (unsynchronised) schedule, a
// transmit power, and the one piece of per-UE state the paper's protocols
// touch — the serving transmit beam, which the BeamSurfer base-station
// adjustment moves to a directionally adjacent beam on request from the
// mobile. Active procedures (RACH response, SSB generation) are driven by
// the environment/procedure layers so that a BaseStation stays a value-ish
// object that tests can poke directly.
#pragma once

#include <utility>

#include "common/pose.hpp"
#include "net/ids.hpp"
#include "net/timing.hpp"
#include "phy/codebook.hpp"

namespace st::net {

class BaseStation {
 public:
  BaseStation(CellId id, Pose pose, phy::Codebook tx_codebook,
              double tx_power_dbm, FrameSchedule schedule)
      : id_(id),
        pose_(pose),
        codebook_(std::move(tx_codebook)),
        tx_power_dbm_(tx_power_dbm),
        schedule_(std::move(schedule)),
        serving_tx_beam_(0) {}

  [[nodiscard]] CellId id() const noexcept { return id_; }
  [[nodiscard]] const Pose& pose() const noexcept { return pose_; }
  [[nodiscard]] const phy::Codebook& codebook() const noexcept {
    return codebook_;
  }
  [[nodiscard]] double tx_power_dbm() const noexcept { return tx_power_dbm_; }
  [[nodiscard]] const FrameSchedule& schedule() const noexcept {
    return schedule_;
  }

  /// Transmit beam currently used to serve the connected mobile.
  [[nodiscard]] phy::BeamId serving_tx_beam() const noexcept {
    return serving_tx_beam_;
  }
  void set_serving_tx_beam(phy::BeamId beam) { serving_tx_beam_ = beam; }

 private:
  CellId id_;
  Pose pose_;
  phy::Codebook codebook_;
  double tx_power_dbm_;
  FrameSchedule schedule_;
  phy::BeamId serving_tx_beam_;
};

}  // namespace st::net
