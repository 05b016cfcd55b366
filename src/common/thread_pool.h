#ifndef ZEROTUNE_COMMON_THREAD_POOL_H_
#define ZEROTUNE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace zerotune {

/// Fixed-size worker pool used for data-parallel gradient computation and
/// batched query labeling. Tasks are plain std::function<void()>; use
/// ParallelFor for the common indexed-loop case.
///
/// Each idle worker parks on its own condition variable, and Submit wakes
/// the most recently parked one (LIFO), so back-to-back work lands on a
/// worker whose caches are still warm and the others stay asleep.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (defaults to hardware concurrency, at
  /// least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution (tasks start in FIFO
  /// order).
  void Submit(std::function<void()> task) ZT_EXCLUDES(mu_);

  /// Blocks until all submitted tasks have finished, ParallelFor's own
  /// tasks included. A task that threw is still counted as finished — the
  /// worker catches the exception instead of letting it reach
  /// std::terminate — and the first captured exception is rethrown here
  /// (then cleared, so the pool stays usable). Must not be called from one
  /// of the pool's workers, which would wait for its own task.
  void Wait() ZT_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// True when called on one of this pool's worker threads.
  bool OnWorkerThread() const;

 private:
  void WorkerLoop(size_t id) ZT_EXCLUDES(mu_);

  Mutex mu_;
  std::queue<std::function<void()>> tasks_ ZT_GUARDED_BY(mu_);
  /// Parked workers' ids, the most recently parked last.
  std::vector<size_t> idle_ ZT_GUARDED_BY(mu_);
  /// Per worker: 1 while it sits in idle_, until Submit picks it.
  std::vector<char> parked_ ZT_GUARDED_BY(mu_);
  /// Per worker: the condition variable it parks on.
  std::unique_ptr<std::condition_variable[]> wake_;
  std::condition_variable all_done_;
  size_t in_flight_ ZT_GUARDED_BY(mu_) = 0;
  bool shutting_down_ ZT_GUARDED_BY(mu_) = false;
  std::exception_ptr first_exception_ ZT_GUARDED_BY(mu_);  // rethrown by Wait
  std::vector<std::thread> workers_;  // last: the threads use all of the above
};

/// Runs fn(i) once for each i in [0, n) on the pool and blocks until done.
///
/// - Which thread runs an index is unspecified: the pool's workers claim
///   single indices from a shared counter until none is left, so fn must
///   not depend on the split (write only index i's own output).
/// - The caller runs no index: it hands the pool one task, whose worker
///   wakes at most min(n, num_threads) - 1 more, and sleeps until they
///   finish, so wake-ups never outnumber the pool's workers.
/// - With a null pool, a one-thread pool, n == 1, or when called from one
///   of the pool's own workers (a nested ParallelFor), the loop runs
///   inline on the calling thread, in index order.
/// - If fn throws, no further index is claimed, and the first exception
///   is rethrown to the caller only after every claimed index has
///   finished, so no index outlives the call. It never reaches Wait(),
///   and an exception from a Submit task never reaches ParallelFor.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace zerotune

#endif  // ZEROTUNE_COMMON_THREAD_POOL_H_
