#ifndef ZEROTUNE_COMMON_CLOCK_H_
#define ZEROTUNE_COMMON_CLOCK_H_

#include <cstdint>
#include <limits>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace zerotune {

/// Sentinel meaning "no deadline" on the Clock timeline.
inline constexpr int64_t kNoDeadlineNanos =
    std::numeric_limits<int64_t>::max();

/// Injectable time source used by every component with timing behavior
/// (prediction serving, circuit breaking, retry backoff). Production code
/// uses SystemClock; tests use FakeClock to drive deadline and breaker
/// transitions deterministically — no sleeps, no flaky timing margins.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary fixed epoch.
  virtual int64_t NowNanos() = 0;

  /// Blocks the calling thread for `nanos` of this clock's time.
  virtual void SleepFor(int64_t nanos) = 0;

  /// Milliseconds elapsed since `start_nanos` on this clock.
  double MillisSince(int64_t start_nanos) {
    return static_cast<double>(NowNanos() - start_nanos) / 1e6;
  }
};

/// Wall-clock implementation over std::chrono::steady_clock.
class SystemClock : public Clock {
 public:
  /// Shared process-wide instance (the clock is stateless).
  static SystemClock* Default();

  int64_t NowNanos() override;
  void SleepFor(int64_t nanos) override;
};

/// Deterministic manually-advanced clock for tests. SleepFor advances
/// virtual time instead of blocking, so single-threaded tests of
/// deadline/backoff/breaker logic run in microseconds of real time.
/// Nothing waits on it: no thread ever blocks until another advances it.
/// Thread-safe; threads that share it advance one timeline, so a duration
/// it measures is exact only while one thread at a time advances it
/// (PredictionService, or a PredictionFleet without a pool).
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_nanos = 0) : now_(start_nanos) {}

  int64_t NowNanos() override;
  void SleepFor(int64_t nanos) override;

  /// Moves time forward by `nanos` (>= 0).
  void Advance(int64_t nanos);
  void AdvanceMillis(double ms) {
    Advance(static_cast<int64_t>(ms * 1e6));
  }

 private:
  mutable Mutex mu_;
  int64_t now_ ZT_GUARDED_BY(mu_);
};

/// A point on a Clock's timeline by which work must finish. Budget <= 0
/// (or the default constructor) means "no deadline". Cheap to copy; checks
/// are cooperative — long-running phases poll Expired() between steps.
class Deadline {
 public:
  /// No deadline.
  Deadline() = default;

  /// Expires `budget_ms` after `clock`'s current time.
  Deadline(Clock* clock, double budget_ms);

  static Deadline Infinite() { return Deadline(); }

  bool infinite() const { return clock_ == nullptr; }
  bool Expired() const;
  /// Remaining budget in ms; negative once expired, +inf when infinite.
  double RemainingMs() const;
  /// Absolute expiry on the clock's timeline (kNoDeadlineNanos when
  /// infinite).
  int64_t deadline_nanos() const { return deadline_nanos_; }
  Clock* clock() const { return clock_; }

 private:
  Clock* clock_ = nullptr;
  int64_t deadline_nanos_ = kNoDeadlineNanos;
};

}  // namespace zerotune

#endif  // ZEROTUNE_COMMON_CLOCK_H_
