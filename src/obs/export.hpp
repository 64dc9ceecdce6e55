// Trace exporter.
//
// write_chrome_trace writes Chrome/Perfetto "trace event" JSON: one
// thread track per component; state transitions become duration slices
// ("B"/"E"), RSS samples become counter tracks ("C", one per component
// and cell), everything else an instant ("i"). Load the file at
// ui.perfetto.dev or chrome://tracing. Timestamps are sim time in
// microseconds (the format's native unit), so a 30 s scenario renders as
// a 30 s timeline.
//
// It takes the whole TraceRecorder and returns stream goodness so
// callers can report I/O failures; the *_file helper opens/closes the
// path.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace.hpp"

namespace st::obs {

bool write_chrome_trace(const TraceRecorder& recorder, std::ostream& os);
bool write_chrome_trace_file(const TraceRecorder& recorder,
                             const std::string& path);

/// Write `content` to `path` (used for RunReport JSON); false on failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace st::obs
