// Pending-event set for the discrete-event engine: a binary heap keyed by
// (time, sequence number). The sequence number makes same-time events fire
// in scheduling order, which keeps runs deterministic — protocol races
// (e.g. an SSB measurement and a blockage onset in the same slot) resolve
// the same way on every platform. Events are cancellable via handles so a
// timer can be disarmed when its state machine leaves the waiting state.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace st::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

class EventQueue {
 public:
  struct Entry {
    Time when;
    EventId id = 0;
    EventFn fn;
  };

  /// Add an event; returns a handle usable with cancel().
  EventId push(Time when, EventFn fn);

  /// Cancel a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed. Cancellation is O(1) (lazy:
  /// cancelled entries are skipped at pop time).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Remove and return the earliest pending event. Precondition: !empty().
  [[nodiscard]] Entry pop();

 private:
  struct HeapItem {
    Time when;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  /// Drop cancelled entries from the heap top. Logically const — it only
  /// collapses lazily-cancelled entries, never changes the observable
  /// queue — so const accessors (next_time) may call it on the mutable
  /// heap without casting away constness.
  void skip_cancelled() const;

  mutable std::priority_queue<HeapItem, std::vector<HeapItem>, Later> heap_;
  std::unordered_map<EventId, EventFn> callbacks_;
  EventId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
};

}  // namespace st::sim
