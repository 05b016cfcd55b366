#include "common/clock.h"

#include <chrono>
#include <thread>

namespace zerotune {

namespace {

std::chrono::steady_clock::time_point SteadyFromNanos(int64_t nanos) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(nanos)));
}

}  // namespace

SystemClock* SystemClock::Default() {
  static SystemClock clock;
  return &clock;
}

int64_t SystemClock::NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SystemClock::SleepFor(int64_t nanos) {
  if (nanos <= 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

bool SystemClock::WaitUntil(std::unique_lock<std::mutex>& lock,
                            std::condition_variable& cv,
                            int64_t deadline_nanos,
                            const std::function<bool()>& pred) {
  if (deadline_nanos == kNoDeadlineNanos) {
    cv.wait(lock, pred);
    return true;
  }
  return cv.wait_until(lock, SteadyFromNanos(deadline_nanos), pred);
}

int64_t FakeClock::NowNanos() {
  MutexLock g(mu_);
  return now_;
}

void FakeClock::SleepFor(int64_t nanos) {
  // Virtual sleep: the "sleeping" thread advances time itself, so
  // retry-backoff paths run instantly and deterministically under test.
  Advance(nanos);
}

void FakeClock::Advance(int64_t nanos) {
  if (nanos <= 0) return;
  MutexLock g(mu_);
  now_ += nanos;
}

bool FakeClock::WaitUntil(std::unique_lock<std::mutex>& lock,
                          std::condition_variable& cv, int64_t deadline_nanos,
                          const std::function<bool()>& pred) {
  // The fake clock never blocks: nothing ever signals `cv`, and `lock`
  // is never released.
  (void)lock;
  (void)cv;
  if (pred()) return true;
  if (deadline_nanos == kNoDeadlineNanos) {
    // No other thread drives fake time; an indefinite wait would deadlock
    // a deterministic test, so re-check once and report.
    return pred();
  }
  // The calling thread is the only driver of time in deterministic tests:
  // jump straight to the deadline and evaluate the predicate there.
  {
    MutexLock g(mu_);
    if (now_ < deadline_nanos) now_ = deadline_nanos;
  }
  return pred();
}

Deadline::Deadline(Clock* clock, double budget_ms) {
  if (clock == nullptr || budget_ms <= 0.0) return;  // infinite
  clock_ = clock;
  deadline_nanos_ = clock->NowNanos() + static_cast<int64_t>(budget_ms * 1e6);
}

bool Deadline::Expired() const {
  return clock_ != nullptr && clock_->NowNanos() >= deadline_nanos_;
}

double Deadline::RemainingMs() const {
  if (clock_ == nullptr) return std::numeric_limits<double>::infinity();
  return static_cast<double>(deadline_nanos_ - clock_->NowNanos()) / 1e6;
}

}  // namespace zerotune
