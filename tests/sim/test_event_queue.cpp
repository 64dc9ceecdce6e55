#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace st::sim {
namespace {

using namespace st::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(Time::zero() + 30_ms, [&] { fired.push_back(3); });
  q.push(Time::zero() + 10_ms, [&] { fired.push_back(1); });
  q.push(Time::zero() + 20_ms, [&] { fired.push_back(2); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  const Time t = Time::zero() + 5_ms;
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) {
    q.pop().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(Time::zero() + 1_ms, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(Time::zero(), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  std::vector<int> fired;
  const EventId first = q.push(Time::zero() + 1_ms, [&] { fired.push_back(1); });
  q.push(Time::zero() + 2_ms, [&] { fired.push_back(2); });
  q.cancel(first);
  EXPECT_EQ(q.next_time(), Time::zero() + 2_ms);
  q.pop().fn();
  EXPECT_EQ(fired, std::vector<int>{2});
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(Time::zero(), [] {});
  q.push(Time::zero() + 1_ms, [] {});
  EXPECT_EQ(q.size(), 2U);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1U);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueue, EntryCarriesScheduledTime) {
  EventQueue q;
  q.push(Time::zero() + 7_ms, [] {});
  const EventQueue::Entry e = q.pop();
  EXPECT_EQ(e.when, Time::zero() + 7_ms);
}

}  // namespace
}  // namespace st::sim
