#include "obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <vector>

#include "common/json.hpp"

namespace st::obs {

namespace {

/// Microsecond timestamp (trace-event native unit) from sim time.
[[nodiscard]] double ts_us(sim::Time t) {
  return static_cast<double>(t.ns()) / 1000.0;
}

/// A record opening with "name" (when non-empty), "ph", "pid" and "tid".
[[nodiscard]] json::Value record(std::string_view name, std::string_view ph,
                                 std::uint64_t tid) {
  json::Value v = json::Value::object();
  if (!name.empty()) {
    v.set("name", name);
  }
  v.set("ph", ph);
  v.set("pid", std::uint64_t{1});
  v.set("tid", tid);
  return v;
}

/// Event-specific args object for instant events.
[[nodiscard]] json::Value args_json(const TraceEvent& e) {
  json::Value args = json::Value::object();
  if (e.cell >= 0) {
    args.set("cell", json::Value::integer(e.cell));
  }
  if (e.beam_a >= 0) {
    args.set("beam_a", json::Value::integer(e.beam_a));
  }
  if (e.beam_b >= 0) {
    args.set("beam_b", json::Value::integer(e.beam_b));
  }
  args.set("value", e.value);
  args.set("value2", e.value2);
  args.set("flag", json::Value::boolean(e.flag));
  if (!e.label.empty()) {
    args.set("label", e.label);
  }
  return args;
}

/// A metadata record naming the process (tid 0) or a track.
[[nodiscard]] json::Value metadata(std::string_view kind, std::uint64_t tid,
                                   std::string_view name) {
  json::Value args = json::Value::object();
  args.set("name", name);
  json::Value v = record(kind, "M", tid);
  v.set("args", std::move(args));
  return v;
}

}  // namespace

bool write_chrome_trace(const TraceRecorder& recorder, std::ostream& os) {
  // The envelope renders like any document; the records then stream
  // into its empty event array one at a time, so a full trace is never
  // held as one document.
  json::Value envelope = json::Value::object();
  envelope.set("displayTimeUnit", "ms");
  envelope.set("traceEvents", json::Value::array());
  const std::string shell = envelope.dump();
  const std::size_t events_end = shell.rfind(']');
  os << shell.substr(0, events_end) << '\n';
  bool first = true;
  const auto emit = [&](const json::Value& event) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << event.dump();
  };

  emit(metadata("process_name", 0, "silent-tracker sim"));

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
    const std::uint64_t tid = i + 1;
    const std::string_view tag = to_string(component);
    emit(metadata("thread_name", tid, tag));

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
        json::Value v = json::Value::object();
        v.set("name", name);
        v.set("cat", "job");
        v.set("ph", std::string_view(&ph, 1));
        v.set("id", "job-" + std::to_string(job));
        v.set("pid", std::uint64_t{1});
        v.set("tid", tid);
        v.set("ts", ts_us(at));
        if (args_of != nullptr) {
          v.set("args", args_json(*args_of));
        }
        emit(v);
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
      json::Value v = record({}, "E", tid);
      v.set("ts", ts_us(at));
      emit(v);
    };

    bool slice_open = false;
    for (const TraceEvent& e : events) {
      switch (e.type) {
        case TraceEventType::kStateTransition: {
          if (slice_open) {
            close_slice(e.t);
          }
          json::Value v = record(e.label, "B", tid);
          v.set("ts", ts_us(e.t));
          v.set("args", args_json(e));
          emit(v);
          slice_open = true;
          break;
        }
        case TraceEventType::kRssSample: {
          // Counter track per component and cell: Perfetto renders each
          // distinct counter name as its own series.
          std::string name(tag);
          name += " rss_dbm";
          if (e.cell >= 0) {
            name += " cell=";
            name += std::to_string(e.cell);
          }
          json::Value args = json::Value::object();
          args.set("dbm", e.value);
          json::Value v = record(name, "C", tid);
          v.set("ts", ts_us(e.t));
          v.set("args", std::move(args));
          emit(v);
          break;
        }
        default: {
          json::Value v = json::Value::object();
          v.set("name", to_string(e.type));
          v.set("ph", "i");
          v.set("s", "t");
          v.set("pid", std::uint64_t{1});
          v.set("tid", tid);
          v.set("ts", ts_us(e.t));
          v.set("args", args_json(e));
          emit(v);
          break;
        }
      }
    }
    if (slice_open) {
      close_slice(trace_end);
    }
  }

  os << '\n' << shell.substr(events_end) << '\n';
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
