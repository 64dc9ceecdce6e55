// Push-based telemetry plane: a TelemetryBus fans versioned frames out to
// bounded per-subscriber queues.
//
// The serving daemon publishes three kinds of frames — periodic
// MetricRegistry snapshot deltas, job lifecycle transitions, and fleet
// progress events — and any number of subscribers consume them at their
// own pace. A subscriber that falls behind never blocks the publisher and
// never grows memory: its queue is bounded, the oldest frames are dropped,
// and the drop count is reported on the next pop so the consumer *knows*
// its view has a hole (the wire protocol forwards it as a `dropped` field,
// and the seq-cursor poll path can backfill the gap).
//
// Thread model: publish() may be called from any thread (the daemon calls
// it under its state mutex); pop() blocks on a per-subscriber condition
// variable, so slow consumers contend only on their own queue, not on the
// bus or on each other. close() wakes every blocked pop for shutdown.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/thread_annotations.hpp"

namespace st::obs {

/// Frame schema version, exported as the `v` field on the wire.
inline constexpr std::uint64_t kTelemetryFrameVersion = 1;

enum class TelemetryKind : std::uint8_t {
  kStats = 0,  ///< periodic MetricRegistry snapshot (or delta)
  kJobEvent,   ///< job lifecycle transition (queued, running, done, ...)
  kProgress,   ///< fleet progress (per-UE completion)
};

/// Wire tag: "stats", "job", "progress".
[[nodiscard]] std::string_view to_string(TelemetryKind kind) noexcept;

/// Which frame kinds a subscriber wants delivered.
struct TelemetryFilter {
  bool stats = true;
  bool events = true;  ///< both kJobEvent and kProgress

  [[nodiscard]] bool wants(TelemetryKind kind) const noexcept {
    return kind == TelemetryKind::kStats ? stats : events;
  }
};

/// One published frame. `seq` is the bus-global publication sequence
/// (monotone across all kinds), so a consumer can detect and localise
/// gaps; `t_ns` is the publisher's clock in nanoseconds (the daemon uses
/// time since server start).
struct TelemetryFrame {
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  TelemetryKind kind = TelemetryKind::kStats;
  json::Value payload;
};

/// Bounded fan-out bus. Subscribers are identified by an opaque id;
/// unsubscribing (or close()) wakes any pop blocked on that queue.
class TelemetryBus {
 public:
  using SubscriberId = std::uint64_t;

  struct PopResult {
    std::vector<TelemetryFrame> frames;
    /// Frames dropped from this queue since the previous pop (bounded
    /// queue overflowed while the consumer lagged).
    std::uint64_t dropped = 0;
    /// True once the bus is closed or the id unsubscribed; no further
    /// frames will arrive after the returned batch.
    bool closed = false;
  };

  /// `queue_capacity` is clamped to at least 1.
  [[nodiscard]] SubscriberId subscribe(TelemetryFilter filter,
                                       std::size_t queue_capacity)
      ST_EXCLUDES(mutex_);
  void unsubscribe(SubscriberId id) ST_EXCLUDES(mutex_);

  /// Assigns the global seq and fans out to every matching subscriber,
  /// both under the bus lock, so concurrent publishers reach each queue in
  /// seq order. Returns the assigned seq. The payload is copied per
  /// subscriber.
  std::uint64_t publish(TelemetryKind kind, std::uint64_t t_ns,
                        const json::Value& payload) ST_EXCLUDES(mutex_);

  /// Blocks until at least one frame is queued, the timeout elapses, or
  /// the subscriber is closed; drains up to `max_frames`. An unknown id
  /// returns an empty, closed result.
  [[nodiscard]] PopResult pop(SubscriberId id,
                              std::chrono::milliseconds timeout,
                              std::size_t max_frames = 64)
      ST_EXCLUDES(mutex_);

  /// Marks every subscriber closed and wakes blocked pops. Subsequent
  /// publishes are dropped silently; subscribe() keeps working (the new
  /// subscriber just sees closed immediately), which keeps shutdown races
  /// benign.
  void close() ST_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t subscriber_count() const ST_EXCLUDES(mutex_);
  /// Frames published in total (== last assigned seq).
  [[nodiscard]] std::uint64_t published() const ST_EXCLUDES(mutex_);
  /// Frames dropped across all subscribers, ever (including ones that
  /// have since unsubscribed).
  [[nodiscard]] std::uint64_t total_dropped() const ST_EXCLUDES(mutex_);

 private:
  // Two lock levels: the bus mutex_ guards the registry and the global
  // counters; each Subscriber's own mutex guards its queue, so a slow
  // consumer contends only on itself. publish() assigns seq and delivers
  // under one hold of mutex_, taking each subscriber lock inside it (bus
  // -> subscriber, never both across a wait — the documented and
  // TSan-exercised lock order), so every queue holds its frames in seq
  // order.
  struct Subscriber {
    mutable Mutex mutex;
    CondVar cv;
    std::deque<TelemetryFrame> queue ST_GUARDED_BY(mutex);
    std::uint64_t dropped_unreported ST_GUARDED_BY(mutex) = 0;
    bool closed ST_GUARDED_BY(mutex) = false;
    // Written once in subscribe() before the subscriber is shared;
    // immutable afterwards, so reads need no capability.
    std::size_t capacity = 1;
    TelemetryFilter filter;
  };

  mutable Mutex mutex_;
  std::map<SubscriberId, std::shared_ptr<Subscriber>> subscribers_
      ST_GUARDED_BY(mutex_);
  SubscriberId next_id_ ST_GUARDED_BY(mutex_) = 1;
  std::uint64_t next_seq_ ST_GUARDED_BY(mutex_) = 1;
  std::uint64_t total_dropped_ ST_GUARDED_BY(mutex_) = 0;
  bool closed_ ST_GUARDED_BY(mutex_) = false;
};

}  // namespace st::obs
