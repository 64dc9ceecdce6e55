#include "sim/simulator.hpp"

#include <chrono>
#include <memory>
#include <utility>

namespace st::sim {

namespace {
[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

EventId Simulator::schedule_at(Time when, EventFn fn) {
  if (when < now_) {
    when = now_;
  }
  const EventId id = queue_.push(when, std::move(fn));
  note_queue_depth();
  return id;
}

EventId Simulator::schedule_after(Duration delay, EventFn fn) {
  if (delay < Duration{}) {
    delay = Duration{};
  }
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_periodic(Time first, Duration period, EventFn fn) {
  // The simulator owns the chain; each occurrence holds only a pointer to
  // it, so destroying the simulator releases every chain.
  periodic_.push_back(
      std::make_unique<PeriodicChain>(PeriodicChain{period, std::move(fn)}));
  PeriodicChain* c = periodic_.back().get();
  schedule_at(first, [this, c] { run_periodic(*c); });
}

void Simulator::run_periodic(PeriodicChain& chain) {
  // Payload first, then the next occurrence: the order every
  // same-instant tie and the queue high-water mark are pinned against.
  chain.fn();
  PeriodicChain* c = &chain;
  queue_.push(now_ + chain.period, [this, c] { run_periodic(*c); });
  note_queue_depth();
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

void Simulator::run_until(Time end) { run_until(end, nullptr); }

bool Simulator::run_until(Time end, const CancelToken* cancel) {
  const auto wall_start = std::chrono::steady_clock::now();
  const Time sim_start = now_;
  bool interrupted = false;
  while (step(end)) {
    if (cancel != nullptr && cancel->cancelled()) {
      interrupted = true;
      break;
    }
  }
  // Only a completed run advances the clock to `end`: a cancelled run
  // leaves it at the last dispatched event, so callers can report how
  // far the schedule actually got.
  if (!interrupted && now_ < end) {
    now_ = end;
  }
  stats_.wall_seconds += seconds_since(wall_start);
  stats_.sim_seconds += (now_ - sim_start).seconds();
  return !interrupted;
}

bool Simulator::step(Time end) {
  if (queue_.empty()) {
    return false;
  }
  const Time next = queue_.next_time();
  if (next > end) {
    return false;
  }
  EventQueue::Entry entry = queue_.pop();
  now_ = entry.when;
  ++stats_.events_executed;
  if (dispatch_us_ != nullptr) {
    const auto dispatch_start = std::chrono::steady_clock::now();
    entry.fn();
    dispatch_us_->add(seconds_since(dispatch_start) * 1e6);
  } else {
    entry.fn();
  }
  return true;
}

}  // namespace st::sim
