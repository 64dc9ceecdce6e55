#include "sim/event_queue.hpp"

#include <stdexcept>

namespace st::sim {

EventId EventQueue::push(Time when, EventFn fn) {
  const EventId id = next_id_++;
  heap_.push(HeapItem{when, next_seq_++, id});
  callbacks_.emplace(id, std::move(fn));
  return id;
}

bool EventQueue::cancel(EventId id) { return callbacks_.erase(id) > 0; }

bool EventQueue::empty() const noexcept { return callbacks_.empty(); }

std::size_t EventQueue::size() const noexcept { return callbacks_.size(); }

void EventQueue::skip_cancelled() const {
  while (!heap_.empty() && !callbacks_.contains(heap_.top().id)) {
    heap_.pop();
  }
}

Time EventQueue::next_time() const {
  skip_cancelled();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::next_time on empty queue");
  }
  return heap_.top().when;
}

EventQueue::Entry EventQueue::pop() {
  skip_cancelled();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  const HeapItem item = heap_.top();
  heap_.pop();
  auto it = callbacks_.find(item.id);
  Entry entry{item.when, item.id, std::move(it->second)};
  callbacks_.erase(it);
  return entry;
}

}  // namespace st::sim
