// Pending-event set for the discrete-event engine, ordered by (time, id).
// Ids grow with push order, so same-time events fire in scheduling order,
// which keeps runs deterministic — protocol races (e.g. an SSB measurement
// and a blockage onset in the same slot) resolve the same way on every
// platform. Events are cancellable via handles so a timer can be disarmed
// when its state machine leaves the waiting state.
//
// Two flat arrays hold the set: the (time, id, slot) keys, kept sorted
// latest-first so the next event sits at the back, and a pool of callback
// slots that a free list reuses. Once both have grown to the schedule's
// depth, push and pop allocate nothing. A cancel removes its key at once
// by a linear scan (cancels are rare and the set is a few dozen deep), so
// size() always counts live events.
#pragma once

#include <cstdint>
#include <functional>
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
  /// already cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Remove and return the earliest pending event. Precondition: !empty().
  [[nodiscard]] Entry pop();

 private:
  struct Key {
    Time when;
    EventId id;
    std::uint32_t slot;  // index into fns_
  };

  /// Move `fn` into a free slot, growing the pool only when none is free.
  std::uint32_t take_slot(EventFn fn);

  std::vector<Key> keys_;  // sorted by (when, id), latest first
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;
  EventId next_id_ = 1;
};

}  // namespace st::sim
