// Build provenance: which source revision, compiler, and build type
// produced this binary. Stamped into every RunReport / FleetReport and
// the daemon's stats response, so an archived bench artifact records
// exactly what produced it (obs::ProvenanceReport::current() adds the
// runtime-selected SIMD dispatch leg).
//
// The values are baked in at configure time (CMake runs `git describe`
// and captures the compiler id); a tree without git history reports
// "unknown". Configure-time means the stamp can lag HEAD until the next
// CMake re-run — good enough for artifact provenance, and it keeps the
// build graph free of always-dirty generated files.
#pragma once

#include <string_view>

namespace st {

struct BuildInfo {
  std::string_view git_describe;  ///< `git describe --always --dirty --tags`
  std::string_view compiler;      ///< e.g. "GNU 13.2.0"
  std::string_view build_type;    ///< CMAKE_BUILD_TYPE, e.g. "Release"
};

[[nodiscard]] const BuildInfo& build_info() noexcept;

}  // namespace st
