#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace st::sim {

std::uint32_t EventQueue::take_slot(EventFn fn) {
  if (free_slots_.empty()) {
    fns_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(fns_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  fns_[slot] = std::move(fn);
  return slot;
}

EventId EventQueue::push(Time when, EventFn fn) {
  const EventId id = next_id_++;
  // The new id is the largest, so the key goes before every key of its
  // instant and after every later one.
  const auto at = std::partition_point(
      keys_.begin(), keys_.end(),
      [when](const Key& k) { return k.when > when; });
  keys_.insert(at, Key{when, id, take_slot(std::move(fn))});
  return id;
}

bool EventQueue::cancel(EventId id) {
  const auto it = std::find_if(keys_.begin(), keys_.end(),
                               [id](const Key& k) { return k.id == id; });
  if (it == keys_.end()) {
    return false;
  }
  fns_[it->slot] = nullptr;  // release the callback's captures now
  free_slots_.push_back(it->slot);
  keys_.erase(it);
  return true;
}

Time EventQueue::next_time() const {
  if (keys_.empty()) {
    throw std::logic_error("EventQueue::next_time on empty queue");
  }
  return keys_.back().when;
}

EventQueue::Entry EventQueue::pop() {
  if (keys_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  const Key key = keys_.back();
  keys_.pop_back();
  free_slots_.push_back(key.slot);
  return Entry{key.when, key.id, std::exchange(fns_[key.slot], nullptr)};
}

}  // namespace st::sim
