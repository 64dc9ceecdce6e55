// Message formatting. The simulator writes no log: its record is the
// typed protocol trace (obs/trace.hpp). log_message builds the strings
// that trace narratives and invariant-violation reports carry, the
// latter also from the checker legs in the environment and link monitor.
#pragma once

#include <sstream>
#include <string>

namespace st {

/// Build a message from streamable parts: log_message("rss=", -62.5, " dBm").
template <typename... Parts>
[[nodiscard]] std::string log_message(const Parts&... parts) {
  std::ostringstream oss;
  (oss << ... << parts);
  return oss.str();
}

}  // namespace st
