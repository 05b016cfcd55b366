// Tests for the injectable time source (common/clock.h): SystemClock
// monotonicity, deterministic FakeClock advancement, and Deadline budget
// semantics the serving and tuning layers rely on.
#include "common/clock.h"

#include <gtest/gtest.h>

namespace zerotune {
namespace {

TEST(SystemClockTest, NowIsMonotonic) {
  SystemClock* clock = SystemClock::Default();
  const int64_t a = clock->NowNanos();
  const int64_t b = clock->NowNanos();
  EXPECT_GE(b, a);
}

TEST(SystemClockTest, SleepForAdvancesAtLeastTheRequestedTime) {
  SystemClock* clock = SystemClock::Default();
  const int64_t t0 = clock->NowNanos();
  clock->SleepFor(2'000'000);  // 2 ms
  EXPECT_GE(clock->NowNanos() - t0, 2'000'000);
}

TEST(FakeClockTest, StartsAtConstructedTime) {
  FakeClock clock(123);
  EXPECT_EQ(clock.NowNanos(), 123);
}

TEST(FakeClockTest, AdvanceMovesTimeForward) {
  FakeClock clock;
  clock.Advance(500);
  EXPECT_EQ(clock.NowNanos(), 500);
  clock.AdvanceMillis(2.0);
  EXPECT_EQ(clock.NowNanos(), 500 + 2'000'000);
}

TEST(FakeClockTest, SleepForAdvancesVirtualTimeWithoutBlocking) {
  FakeClock clock;
  clock.SleepFor(7'000'000);
  EXPECT_EQ(clock.NowNanos(), 7'000'000);
}

TEST(DeadlineTest, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.deadline_nanos(), kNoDeadlineNanos);
  EXPECT_GT(d.RemainingMs(), 1e18);
}

TEST(DeadlineTest, NonPositiveBudgetMeansInfinite) {
  FakeClock clock;
  EXPECT_TRUE(Deadline(&clock, 0.0).infinite());
  EXPECT_TRUE(Deadline(&clock, -5.0).infinite());
  EXPECT_TRUE(Deadline(nullptr, 10.0).infinite());
}

TEST(DeadlineTest, ExpiresWhenTheClockPassesTheBudget) {
  FakeClock clock;
  const Deadline d(&clock, 10.0);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_NEAR(d.RemainingMs(), 10.0, 1e-9);
  clock.AdvanceMillis(9.0);
  EXPECT_FALSE(d.Expired());
  clock.AdvanceMillis(2.0);
  EXPECT_TRUE(d.Expired());
  EXPECT_LT(d.RemainingMs(), 0.0);
}

TEST(DeadlineTest, InfiniteNeverExpiresUnderAdvancement) {
  FakeClock clock;
  const Deadline d = Deadline::Infinite();
  clock.AdvanceMillis(1e9);
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, TinyBudgetExpiresImmediately) {
  // Sub-nanosecond budgets truncate to "now" — the CLI's
  // --deadline-ms 0.0000001 smoke case.
  FakeClock clock;
  const Deadline d(&clock, 1e-7);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
}

TEST(ClockTest, MillisSinceMeasuresElapsedVirtualTime) {
  FakeClock clock;
  const int64_t t0 = clock.NowNanos();
  clock.AdvanceMillis(3.5);
  EXPECT_NEAR(clock.MillisSince(t0), 3.5, 1e-9);
}

}  // namespace
}  // namespace zerotune
