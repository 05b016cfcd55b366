#include "common/clock.h"

#include <chrono>
#include <thread>

namespace zerotune {

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
