// Trace exporters.
//
//  * write_chrome_trace: Chrome/Perfetto "trace event" JSON — one thread
//    track per component; state transitions become duration slices
//    ("B"/"E"), RSS samples become counter tracks ("C", one per
//    component and cell), everything else an instant ("i"). Load the
//    file at ui.perfetto.dev or chrome://tracing. Timestamps are sim
//    time in microseconds (the formats' native unit), so a 30 s scenario
//    renders as a 30 s timeline.
//  * write_trace_jsonl: one JSON object per line per event, all
//    components merged in time order — the grep/jq-friendly dump.
//
// Both take the whole TraceRecorder; both return stream goodness so
// callers can report I/O failures. *_file helpers open/close the path.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace.hpp"

namespace st::obs {

bool write_chrome_trace(const TraceRecorder& recorder, std::ostream& os);
bool write_chrome_trace_file(const TraceRecorder& recorder,
                             const std::string& path);

bool write_trace_jsonl(const TraceRecorder& recorder, std::ostream& os);

/// Write `content` to `path` (used for RunReport JSON); false on failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace st::obs
