#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

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

// Random push/cancel/pop sequences against an ordered map keyed by
// (time, id): pop order, size() and every cancel result must agree. Times
// fall on a coarse grid so that equal-time ties are common; cancels hit
// the head, a middle entry, the back, an already-fired id and an unknown id.
TEST(EventQueue, MatchesOrderedMapReference) {
  enum Cancel { kHead, kMiddle, kBack, kFired, kUnknown, kCancelKinds };
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::map<std::pair<Time, EventId>, int> reference;
    std::vector<EventId> fired_ids;
    std::vector<int> fired;
    std::vector<int> cancels(kCancelKinds, 0);
    int ties = 0;
    int next_token = 0;
    Time now = Time::zero();

    const auto pop_one = [&] {
      const auto head = reference.begin();
      ASSERT_EQ(q.next_time(), head->first.first);
      EventQueue::Entry e = q.pop();
      ASSERT_EQ(e.when, head->first.first);
      ASSERT_EQ(e.id, head->first.second);
      e.fn();
      ASSERT_EQ(fired.back(), head->second);
      now = e.when;
      fired_ids.push_back(e.id);
      reference.erase(head);
    };

    for (int step = 0; step < 4000; ++step) {
      const double op = rng.uniform();
      if (op < 0.5) {
        const Time when =
            now + static_cast<std::int64_t>(rng.uniform_index(8)) * 1_ms;
        const int token = next_token++;
        const EventId id =
            q.push(when, [&fired, token] { fired.push_back(token); });
        const auto next = reference.lower_bound({when, 0});
        ties += next != reference.end() && next->first.first == when ? 1 : 0;
        ASSERT_TRUE(reference.emplace(std::pair{when, id}, token).second);
      } else if (op < 0.8) {
        if (!reference.empty()) {
          pop_one();
          ASSERT_FALSE(HasFatalFailure());
        }
      } else {
        const auto kind = static_cast<Cancel>(rng.uniform_index(kCancelKinds));
        EventId id = 0;
        bool live = false;
        if (kind == kFired) {
          if (fired_ids.empty()) {
            continue;
          }
          id = fired_ids[rng.uniform_index(fired_ids.size())];
        } else if (kind == kUnknown) {
          id = (1ULL << 40) + rng.uniform_index(1000);
        } else {
          if (reference.empty()) {
            continue;
          }
          auto it = reference.begin();
          if (kind == kBack) {
            it = std::prev(reference.end());
          } else if (kind == kMiddle) {
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.uniform_index(reference.size())));
          }
          id = it->first.second;
          live = true;
          reference.erase(it);
        }
        ASSERT_EQ(q.cancel(id), live);
        if (live) {
          ASSERT_FALSE(q.cancel(id));  // a second cancel finds nothing
        }
        ++cancels[kind];
      }
      ASSERT_EQ(q.size(), reference.size());
      ASSERT_EQ(q.empty(), reference.empty());
    }
    while (!reference.empty()) {
      pop_one();
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_EQ(q.size(), reference.size());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(ties, 100);
    for (const int count : cancels) {
      EXPECT_GT(count, 10);
    }
  }
}

}  // namespace
}  // namespace st::sim
