#include "stbench/harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace stbench {

namespace {

double pointer_chase_ms() {
  constexpr std::size_t kSlots = (8U << 20) / sizeof(std::uint32_t);
  constexpr std::size_t kSteps = 4U << 20;
  // One random cycle through every slot (Sattolo's shuffle from a fixed
  // LCG), so each load depends on the previous one and misses cache.
  std::vector<std::uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0U);
  std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t j = static_cast<std::size_t>(lcg >> 33) % i;
    std::swap(next[i], next[j]);
  }
  const auto start = Clock::now();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    at = next[at];
  }
  const double ms = seconds_between(start, Clock::now()) * 1e3;
  // Keep the chase observable so it cannot be optimised away.
  if (at == 0xFFFFFFFFU) {
    std::puts("");
  }
  return ms;
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_probe_ms() {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("host probe: pipe failed");
  }
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("host probe: fork failed");
  }
  if (child == 0) {
    ::close(fds[0]);
    const double ms = pointer_chase_ms();
    const bool sent = ::write(fds[1], &ms, sizeof ms) == sizeof ms;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double ms = 0.0;
  const bool got = ::read(fds[0], &ms, sizeof ms) == sizeof ms;
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("host probe: child failed");
  }
  return ms;
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace stbench
