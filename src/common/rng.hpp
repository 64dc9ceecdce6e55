// Deterministic random number generation.
//
// Every experiment in this repository must be reproducible bit-for-bit from
// a single root seed, because the paper's results are distributions over
// repeated mobility runs and we want `bench_*` binaries to print identical
// tables on every invocation. We therefore avoid std::random_device and
// std::default_random_engine (implementation-defined) and ship our own
// Xoshiro256++ generator with a SplitMix64 seeder, plus the handful of
// distributions the channel/mobility models need, implemented portably so
// results do not depend on the standard library vendor.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace st {

/// SplitMix64: used to expand one 64-bit seed into independent streams and
/// to seed Xoshiro state. Passes BigCrush when used as a generator itself.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from a root seed and a stream label.
/// Used to give the channel, mobility, and measurement-noise processes
/// their own decorrelated generators: changing the mobility draw count must
/// not perturb the channel realisation.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root_seed,
                                        std::string_view stream_label) noexcept;

/// Xoshiro256++ — fast, high-quality, tiny-state PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  /// UniformRandomBitGenerator interface (usable with <random> if needed).
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }
  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal via Box–Muller (cached second value for speed and
  /// cross-platform determinism).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Exponential with given mean (mean = 1/rate). Used for blockage
  /// inter-arrival times. Precondition: mean > 0.
  double exponential(double mean) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace st
