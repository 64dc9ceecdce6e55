#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <vector>

namespace st::obs {

namespace {

[[nodiscard]] std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

[[nodiscard]] std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Microsecond timestamp (trace-event native unit) from sim time.
[[nodiscard]] std::string ts_us(sim::Time t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(t.ns()) / 1000.0);
  return buf;
}

/// Event-specific args object for instant events.
[[nodiscard]] std::string args_json(const TraceEvent& e) {
  std::string args = "{";
  bool first = true;
  const auto add = [&](std::string_view key, const std::string& rendered) {
    if (!first) {
      args += ",";
    }
    first = false;
    args += "\"";
    args += key;
    args += "\":";
    args += rendered;
  };
  if (e.cell >= 0) {
    add("cell", std::to_string(e.cell));
  }
  if (e.beam_a >= 0) {
    add("beam_a", std::to_string(e.beam_a));
  }
  if (e.beam_b >= 0) {
    add("beam_b", std::to_string(e.beam_b));
  }
  add("value", fmt_double(e.value));
  add("value2", fmt_double(e.value2));
  add("flag", e.flag ? "true" : "false");
  if (!e.label.empty()) {
    std::string quoted;
    quoted += '"';
    quoted += escape(e.label);
    quoted += '"';
    add("label", quoted);
  }
  args += "}";
  return args;
}

}  // namespace

bool write_chrome_trace(const TraceRecorder& recorder, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& event_json) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << event_json;
  };

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"silent-tracker sim\"}}");

  // The timestamp slices close at: the latest event anywhere in the trace.
  sim::Time trace_end = sim::Time::zero();
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    const auto events = recorder.buffer(static_cast<Component>(i)).snapshot();
    if (!events.empty()) {
      trace_end = std::max(trace_end, events.back().t);
    }
  }

  for (std::size_t i = 0; i < kComponentCount; ++i) {
    const Component component = static_cast<Component>(i);
    const auto events = recorder.buffer(component).snapshot();
    if (events.empty()) {
      continue;
    }
    const std::string tid = std::to_string(i + 1);
    const std::string tag(to_string(component));

    {
      std::string line;
      line += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
      line += tid;
      line += ",\"args\":{\"name\":\"";
      line += tag;
      line += "\"}}";
      emit(line);
    }

    if (component == Component::kServe) {
      // Daemon job lifecycle: jobs overlap (several run while others
      // queue), so a single B/E slice stack per track cannot represent
      // them. Emit chrome *async* spans instead, keyed by job id
      // (event.cell): one "queued"/"running" span per state the job sits
      // in, closed by the next transition; terminal states render as
      // async instants. Perfetto lays each job out on its own sub-track.
      const auto async_event = [&](char ph, std::string_view name,
                                   std::int64_t job, sim::Time at,
                                   const TraceEvent* args_of) {
        std::string line;
        line += "{\"name\":\"";
        line += escape(name);
        line += "\",\"cat\":\"job\",\"ph\":\"";
        line += ph;
        line += "\",\"id\":\"job-";
        line += std::to_string(job);
        line += "\",\"pid\":1,\"tid\":";
        line += tid;
        line += ",\"ts\":";
        line += ts_us(at);
        if (args_of != nullptr) {
          line += ",\"args\":";
          line += args_json(*args_of);
        }
        line += "}";
        emit(line);
      };
      std::map<std::int64_t, std::string> open_state;
      for (const TraceEvent& e : events) {
        if (e.type != TraceEventType::kStateTransition) {
          continue;
        }
        const auto it = open_state.find(e.cell);
        if (it != open_state.end()) {
          async_event('e', it->second, e.cell, e.t, nullptr);
          open_state.erase(it);
        }
        const bool terminal = e.label == "done" || e.label == "cancelled" ||
                              e.label == "failed" || e.label == "shed";
        if (terminal) {
          async_event('n', e.label, e.cell, e.t, &e);
        } else {
          async_event('b', e.label, e.cell, e.t, &e);
          open_state.emplace(e.cell, std::string(e.label));
        }
      }
      for (const auto& [job, state] : open_state) {
        async_event('e', state, job, trace_end, nullptr);
      }
      continue;
    }

    const auto close_slice = [&](sim::Time at) {
      std::string line;
      line += "{\"ph\":\"E\",\"pid\":1,\"tid\":";
      line += tid;
      line += ",\"ts\":";
      line += ts_us(at);
      line += "}";
      emit(line);
    };

    bool slice_open = false;
    for (const TraceEvent& e : events) {
      switch (e.type) {
        case TraceEventType::kStateTransition: {
          if (slice_open) {
            close_slice(e.t);
          }
          std::string line;
          line += "{\"name\":\"";
          line += escape(e.label);
          line += "\",\"ph\":\"B\",\"pid\":1,\"tid\":";
          line += tid;
          line += ",\"ts\":";
          line += ts_us(e.t);
          line += ",\"args\":";
          line += args_json(e);
          line += "}";
          emit(line);
          slice_open = true;
          break;
        }
        case TraceEventType::kRssSample: {
          // Counter track per component and cell: Perfetto renders each
          // distinct counter name as its own series.
          std::string name = tag;
          name += " rss_dbm";
          if (e.cell >= 0) {
            name += " cell=";
            name += std::to_string(e.cell);
          }
          std::string line;
          line += "{\"name\":\"";
          line += name;
          line += "\",\"ph\":\"C\",\"pid\":1,\"tid\":";
          line += tid;
          line += ",\"ts\":";
          line += ts_us(e.t);
          line += ",\"args\":{\"dbm\":";
          line += fmt_double(e.value);
          line += "}}";
          emit(line);
          break;
        }
        default: {
          std::string line;
          line += "{\"name\":\"";
          line += to_string(e.type);
          line += "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
          line += tid;
          line += ",\"ts\":";
          line += ts_us(e.t);
          line += ",\"args\":";
          line += args_json(e);
          line += "}";
          emit(line);
          break;
        }
      }
    }
    if (slice_open) {
      close_slice(trace_end);
    }
  }

  os << "\n]}\n";
  return os.good();
}

bool write_chrome_trace_file(const TraceRecorder& recorder,
                             const std::string& path) {
  std::ofstream os(path);
  return os.is_open() && write_chrome_trace(recorder, os);
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  if (!os.is_open()) {
    return false;
  }
  os << content;
  return os.good();
}

}  // namespace st::obs
