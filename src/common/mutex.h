#ifndef ZEROTUNE_COMMON_MUTEX_H_
#define ZEROTUNE_COMMON_MUTEX_H_

#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace zerotune {

/// Annotated drop-in wrappers around the std synchronization primitives.
///
/// Clang's -Wthread-safety analysis only understands locks whose type
/// carries the `capability` attribute and RAII guards marked
/// `scoped_lockable`; libstdc++'s std::mutex / std::lock_guard have neither.
/// Every mutex in the project therefore uses these wrappers (ztlint rule
/// ZT-S006 enforces it), so ZT_GUARDED_BY contracts are actually checked at
/// compile time instead of silently ignored.
///
/// MutexLock keeps a std::unique_lock inside, so condition-variable waits
/// work through `lock.unique_lock()`. The analysis treats a cv wait as
/// holding the lock throughout, which matches the contract (wait
/// reacquires before returning).

/// Exclusive mutex. Prefer MutexLock over calling Lock()/Unlock() directly
/// (ztlint rule ZT-S004 flags bare lock calls).
class ZT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ZT_ACQUIRE() { mu_.lock(); }
  void Unlock() ZT_RELEASE() { mu_.unlock(); }
  bool TryLock() ZT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII guard for Mutex; supports early Unlock() and re-Lock() for the
/// drop-the-lock-then-notify / rethrow patterns.
class ZT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ZT_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() ZT_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() ZT_RELEASE() { lock_.unlock(); }
  void Lock() ZT_ACQUIRE() { lock_.lock(); }

  /// The underlying lock, for std::condition_variable waits. The caller
  /// still logically holds the capability for the whole wait (cv
  /// reacquires before returning).
  std::unique_lock<std::mutex>& unique_lock() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Reader/writer mutex (std::shared_mutex) with shared-capability
/// annotations.
class ZT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ZT_ACQUIRE() { mu_.lock(); }
  void Unlock() ZT_RELEASE() { mu_.unlock(); }
  void LockShared() ZT_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() ZT_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  friend class ReaderMutexLock;
  friend class WriterMutexLock;
  std::shared_mutex mu_;
};

/// RAII exclusive (writer) guard for SharedMutex; supports early Unlock().
class ZT_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ZT_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~WriterMutexLock() ZT_RELEASE() {}

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

  void Unlock() ZT_RELEASE() { lock_.unlock(); }

 private:
  std::unique_lock<std::shared_mutex> lock_;
};

/// RAII shared (reader) guard for SharedMutex.
class ZT_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ZT_ACQUIRE_SHARED(mu)
      : lock_(mu.mu_) {}
  ~ReaderMutexLock() ZT_RELEASE() {}

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

}  // namespace zerotune

#endif  // ZEROTUNE_COMMON_MUTEX_H_
