// The serve_open_loop workload: an in-process serve::Server on a private
// Unix socket, fed small paper-preset jobs on a fixed-interval open-loop
// schedule while one `events` subscriber is attached.
#pragma once

#include <cstdint>
#include <vector>

#include "stbench/harness.hpp"

namespace stbench {

/// Job accounting of one open-loop window, and the checks over it.
struct ServeLedger {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;  ///< submit answered ok
  std::uint64_t shed = 0;      ///< submit answered `shed`
  std::uint64_t rejected = 0;  ///< submit answered with another error
  std::uint64_t done = 0;      ///< distinct accepted ids with a `done` frame
  std::uint64_t failed = 0;    ///< accepted ids that ended failed/cancelled
  std::uint64_t duplicates = 0;  ///< `done` frames for an id already seen
  std::uint64_t strays = 0;      ///< `done` frames for ids never accepted
  std::uint64_t frames_dropped = 0;

  /// Jobs that never reached a terminal frame.
  [[nodiscard]] std::uint64_t missing() const noexcept {
    const std::uint64_t settled = done + failed;
    return accepted > settled ? accepted - settled : 0;
  }
  /// A shed, failed, rejected or missing job counts as failed.
  [[nodiscard]] std::uint64_t failed_jobs() const noexcept {
    return shed + rejected + failed + missing();
  }
  /// submitted == done + shed + failed, every done id seen exactly once,
  /// and no frame dropped.
  [[nodiscard]] bool conserved() const noexcept {
    return submitted == done + shed + rejected + failed + missing() &&
           missing() == 0 && duplicates == 0 && strays == 0 &&
           frames_dropped == 0;
  }

  /// Reconcile accepted ids against the ids of terminal frames seen.
  void settle(const std::vector<std::uint64_t>& accepted_ids,
              const std::vector<std::uint64_t>& done_ids,
              const std::vector<std::uint64_t>& failed_ids);
};

[[nodiscard]] RunResult run_serve_workload(const Options& opt);

}  // namespace stbench
