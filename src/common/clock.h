#ifndef ZEROTUNE_COMMON_CLOCK_H_
#define ZEROTUNE_COMMON_CLOCK_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

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

  /// Waits on `cv` (whose lock is held by the caller) until `pred()` holds
  /// or this clock reaches the absolute time `deadline_nanos`
  /// (kNoDeadlineNanos = wait indefinitely). Returns the final `pred()`
  /// value with the lock re-held. The predicate is evaluated only with the
  /// lock held, like std::condition_variable::wait.
  virtual bool WaitUntil(std::unique_lock<std::mutex>& lock,
                         std::condition_variable& cv, int64_t deadline_nanos,
                         const std::function<bool()>& pred) = 0;

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
  bool WaitUntil(std::unique_lock<std::mutex>& lock,
                 std::condition_variable& cv, int64_t deadline_nanos,
                 const std::function<bool()>& pred) override;
};

/// Deterministic manually-advanced clock for tests. SleepFor advances
/// virtual time instead of blocking, and WaitUntil jumps straight to the
/// deadline when the predicate cannot be satisfied by the calling thread —
/// so single-threaded tests of deadline/backoff/breaker logic run in
/// microseconds of real time. Thread-safe, but designed for tests that
/// run service work on the calling thread (PredictionService, or a
/// PredictionFleet without a pool); it does not block threads waiting for
/// another thread to advance time.
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_nanos = 0) : now_(start_nanos) {}

  int64_t NowNanos() override;
  void SleepFor(int64_t nanos) override;
  bool WaitUntil(std::unique_lock<std::mutex>& lock,
                 std::condition_variable& cv, int64_t deadline_nanos,
                 const std::function<bool()>& pred) override;

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
