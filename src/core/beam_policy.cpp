#include "core/beam_policy.hpp"

#include <algorithm>
#include <cmath>

#include "core/beam_track.hpp"

namespace st::core {

std::string_view to_string(BeamPolicyKind kind) noexcept {
  switch (kind) {
    case BeamPolicyKind::kSilentTracker:
      return "silent_tracker";
    case BeamPolicyKind::kFullSweep:
      return "silent_tracker_full_sweep";
    case BeamPolicyKind::kHierarchical:
      return "hierarchical";
    case BeamPolicyKind::kBlind:
      return "blind";
  }
  return "?";
}

namespace {

// The paper's planner, plan_adjacent_probe (core/beam_track.hpp), the
// one BeamSurfer also calls. kFullSweep is the E6 ablation: the whole
// codebook minus the current beam.
class SilentTrackerPolicy final : public BeamPolicy {
 public:
  explicit SilentTrackerPolicy(bool full_sweep) : full_sweep_(full_sweep) {}

  void plan_probe(const BeamProbeContext& ctx,
                  std::vector<phy::BeamId>& out) override {
    if (!full_sweep_) {
      plan_adjacent_probe(ctx.codebook, ctx.current, ctx.rx_trend, out);
      return;
    }
    out.reserve(ctx.codebook.size());
    for (const phy::Beam& beam : ctx.codebook.beams()) {
      if (beam.id() != ctx.current) {
        out.push_back(beam.id());
      }
    }
  }

 private:
  bool full_sweep_;
};

// Coarse-to-fine fast beam training: a strided tier spanning the whole
// codebook (current beam included, so the comparison stays
// fresh-vs-fresh), then one refinement round over the winner's
// neighbourhood. Stride 0 resolves to ~sqrt(N), balancing the two tiers.
class HierarchicalPolicy final : public BeamPolicy {
 public:
  explicit HierarchicalPolicy(unsigned stride) : stride_(stride) {}

  void reset() override { refine_armed_ = false; }

  void plan_probe(const BeamProbeContext& ctx,
                  std::vector<phy::BeamId>& out) override {
    const unsigned stride = effective_stride(ctx.codebook);
    const unsigned n = static_cast<unsigned>(ctx.codebook.size());
    for (unsigned id = 0; id < n; id += stride) {
      out.push_back(id);
    }
    if (std::find(out.begin(), out.end(), ctx.current) == out.end()) {
      out.push_back(ctx.current);
    }
    refine_armed_ = stride > 1;
  }

  void plan_refine(const BeamProbeContext& ctx, phy::BeamId winner,
                   std::vector<phy::BeamId>& out) override {
    if (!refine_armed_) {
      return;
    }
    refine_armed_ = false;
    const unsigned stride = effective_stride(ctx.codebook);
    // The winner's fine neighbourhood: stride-1 steps to each side
    // (cyclic), winner last so it is re-measured freshest.
    phy::BeamId left = winner;
    phy::BeamId right = winner;
    for (unsigned step = 1; step < stride; ++step) {
      left = ctx.codebook.left_neighbour(left);
      right = ctx.codebook.right_neighbour(right);
      push_unique(out, left);
      push_unique(out, right);
    }
    push_unique(out, winner);
  }

 private:
  [[nodiscard]] unsigned effective_stride(const phy::Codebook& cb) const {
    if (stride_ > 0) {
      return stride_;
    }
    const auto n = static_cast<double>(cb.size());
    return std::max(1u, static_cast<unsigned>(std::lround(std::sqrt(n))));
  }

  static void push_unique(std::vector<phy::BeamId>& out, phy::BeamId id) {
    if (std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
  }

  unsigned stride_;
  bool refine_armed_ = false;
};

// Blind beampattern tracking: trust the drift trend and jump — probe only
// the predicted beam(s), never re-measuring the current one. With no
// fresh current-beam sample in the round, any detected candidate wins,
// so every drop causes a switch even when the loss was the channel's.
class BlindPolicy final : public BeamPolicy {
 public:
  void plan_probe(const BeamProbeContext& ctx,
                  std::vector<phy::BeamId>& out) override {
    const phy::Codebook& cb = ctx.codebook;
    if (ctx.rx_trend < 0) {
      out = {cb.left_neighbour(ctx.current)};
    } else if (ctx.rx_trend > 0) {
      out = {cb.right_neighbour(ctx.current)};
    } else {
      out = {cb.left_neighbour(ctx.current), cb.right_neighbour(ctx.current)};
    }
  }
};

}  // namespace

std::unique_ptr<BeamPolicy> make_beam_policy(const BeamPolicyConfig& config) {
  switch (config.kind) {
    case BeamPolicyKind::kHierarchical:
      return std::make_unique<HierarchicalPolicy>(config.coarse_stride);
    case BeamPolicyKind::kBlind:
      return std::make_unique<BlindPolicy>();
    case BeamPolicyKind::kFullSweep:
      return std::make_unique<SilentTrackerPolicy>(/*full_sweep=*/true);
    case BeamPolicyKind::kSilentTracker:
      break;
  }
  return std::make_unique<SilentTrackerPolicy>(/*full_sweep=*/false);
}

}  // namespace st::core
