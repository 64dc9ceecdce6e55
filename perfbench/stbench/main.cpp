// stbench — the repository's end-to-end benchmark.
//
//   stbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Workloads: fleet_paper_mix, fleet_grid_loaded, serve_open_loop (see
// README.md). With --trace 0 the last line of standard output is the
// end-to-end result; with --trace 1 it is the per-layer result of a
// separate traced run. Spans and fingerprints go to --out-dir.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "stbench/fleet_workload.hpp"
#include "stbench/harness.hpp"
#include "stbench/serve_workload.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "stbench: " << why
            << "\nusage: stbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

stbench::Options parse(int argc, char** argv) {
  stbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0.0)) {
        usage("--seconds must be positive");
      }
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage("unknown option '" + arg + "'");
    }
    if (end != nullptr && *end != '\0') {
      usage("bad number '" + value + "' for " + arg);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const stbench::Options opt = parse(argc, argv);
  try {
    stbench::RunResult result;
    if (stbench::is_fleet_workload(opt.workload)) {
      result = stbench::run_fleet_workload(
          stbench::fleet_workload(opt.workload, opt.seed), opt);
    } else if (opt.workload == "serve_open_loop") {
      result = stbench::run_serve_workload(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
    std::cout << result.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "stbench: " << e.what() << "\n";
    return 1;
  }
}
