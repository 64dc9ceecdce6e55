#include "obs/telemetry.hpp"

#include <algorithm>
#include <utility>

namespace st::obs {

std::string_view to_string(TelemetryKind kind) noexcept {
  switch (kind) {
    case TelemetryKind::kStats:
      return "stats";
    case TelemetryKind::kJobEvent:
      return "job";
    case TelemetryKind::kProgress:
      return "progress";
  }
  return "unknown";
}

TelemetryBus::SubscriberId TelemetryBus::subscribe(TelemetryFilter filter,
                                                   std::size_t queue_capacity) {
  auto sub = std::make_shared<Subscriber>();
  sub->capacity = std::max<std::size_t>(1, queue_capacity);
  sub->filter = filter;
  const MutexLock lock(mutex_);
  {
    // Not shared yet, so uncontended — taken only to satisfy the
    // capability on Subscriber::closed.
    const MutexLock sub_lock(sub->mutex);
    sub->closed = closed_;
  }
  const SubscriberId id = next_id_++;
  subscribers_.emplace(id, std::move(sub));
  return id;
}

void TelemetryBus::unsubscribe(SubscriberId id) {
  std::shared_ptr<Subscriber> sub;
  {
    const MutexLock lock(mutex_);
    const auto it = subscribers_.find(id);
    if (it == subscribers_.end()) {
      return;
    }
    sub = it->second;
    subscribers_.erase(it);
  }
  // Wake a pop still blocked on this queue; it sees closed and returns.
  const MutexLock sub_lock(sub->mutex);
  sub->closed = true;
  sub->cv.notify_all();
}

std::uint64_t TelemetryBus::publish(TelemetryKind kind, std::uint64_t t_ns,
                                    const json::Value& payload) {
  // Assign seq and deliver under one hold of the bus lock: two publishers
  // then enqueue in seq order into every queue, and drop-oldest evicts by
  // seq. Each delivery is a bounded push taken in the bus -> subscriber
  // lock order subscribe() also uses.
  const MutexLock lock(mutex_);
  if (closed_) {
    return next_seq_;
  }
  const std::uint64_t seq = next_seq_++;
  for (const auto& [id, sub] : subscribers_) {
    if (!sub->filter.wants(kind)) {
      continue;
    }
    const MutexLock sub_lock(sub->mutex);
    if (sub->closed) {
      continue;
    }
    while (sub->queue.size() >= sub->capacity) {
      sub->queue.pop_front();
      ++sub->dropped_unreported;
      ++total_dropped_;
    }
    TelemetryFrame frame;
    frame.seq = seq;
    frame.t_ns = t_ns;
    frame.kind = kind;
    frame.payload = payload;
    sub->queue.push_back(std::move(frame));
    sub->cv.notify_all();
  }
  return seq;
}

TelemetryBus::PopResult TelemetryBus::pop(SubscriberId id,
                                          std::chrono::milliseconds timeout,
                                          std::size_t max_frames) {
  PopResult result;
  std::shared_ptr<Subscriber> sub;
  {
    const MutexLock lock(mutex_);
    const auto it = subscribers_.find(id);
    if (it == subscribers_.end()) {
      result.closed = true;
      return result;
    }
    sub = it->second;
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  const MutexLock sub_lock(sub->mutex);
  while (sub->queue.empty() && !sub->closed) {
    if (sub->cv.wait_until(sub->mutex, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  result.dropped = sub->dropped_unreported;
  sub->dropped_unreported = 0;
  // total_dropped_ already accounts for these at publish time.
  const std::size_t take = std::min(max_frames, sub->queue.size());
  result.frames.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    result.frames.push_back(std::move(sub->queue.front()));
    sub->queue.pop_front();
  }
  result.closed = sub->closed && sub->queue.empty();
  return result;
}

void TelemetryBus::close() {
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    const MutexLock lock(mutex_);
    closed_ = true;
    subs.reserve(subscribers_.size());
    for (const auto& [id, sub] : subscribers_) {
      subs.push_back(sub);
    }
  }
  for (const auto& sub : subs) {
    const MutexLock sub_lock(sub->mutex);
    sub->closed = true;
    sub->cv.notify_all();
  }
}

std::size_t TelemetryBus::subscriber_count() const {
  const MutexLock lock(mutex_);
  return subscribers_.size();
}

std::uint64_t TelemetryBus::published() const {
  const MutexLock lock(mutex_);
  return next_seq_ - 1;
}

std::uint64_t TelemetryBus::total_dropped() const {
  // Maintained at publish time, so it already covers frames a subscriber
  // has not yet been told about.
  const MutexLock lock(mutex_);
  return total_dropped_;
}

}  // namespace st::obs
