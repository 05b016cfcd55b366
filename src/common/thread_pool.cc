#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace zerotune {

namespace {

// The pool whose worker the current thread is, if any.
thread_local const ThreadPool* tls_worker_of = nullptr;

// The state of one pooled ParallelFor call, on the caller's stack. Its
// shares claim indices from one counter; the caller sleeps until every
// share has arrived.
class ForkJoin {
 public:
  ForkJoin(size_t n, size_t shares, const std::function<void(size_t)>& fn)
      : n_(n), shares_(shares), fn_(fn), pending_(shares) {}

  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  // The first share: submits the others, so that their wake-ups happen
  // on a worker while the caller sleeps, then claims indices like them.
  void Fork(ThreadPool* pool) {
    size_t submitted = 1;
    try {
      for (; submitted < shares_; ++submitted) {
        pool->Submit([this] { Share(); });
      }
    } catch (...) {
      // The shares that were never submitted arrive now; this one and
      // the submitted ones still run, so the call completes.
      Arrive(std::current_exception(), shares_ - submitted);
    }
    Share();
  }

  // Blocks until every share has arrived, then rethrows the first
  // exception.
  void Join() ZT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (pending_ != 0) done_.wait(lock.unique_lock());
    if (first_exception_ != nullptr) {
      std::exception_ptr e = first_exception_;
      lock.Unlock();
      std::rethrow_exception(e);
    }
  }

 private:
  // Claims and runs single indices until none is left. A throw stops all
  // shares from claiming more; indices already claimed still finish.
  void Share() {
    std::exception_ptr thrown;
    try {
      for (size_t i = next_++; i < n_; i = next_++) fn_(i);
    } catch (...) {
      thrown = std::current_exception();
      next_ = n_;
    }
    Arrive(std::move(thrown), 1);
  }

  void Arrive(std::exception_ptr thrown, size_t shares) ZT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (thrown != nullptr && first_exception_ == nullptr) {
      first_exception_ = std::move(thrown);
    }
    pending_ -= shares;
    // Notified under the lock: once it is released, Join may return and
    // this object go out of scope.
    if (pending_ == 0) done_.notify_one();
  }

  const size_t n_;
  const size_t shares_;
  const std::function<void(size_t)>& fn_;
  std::atomic<size_t> next_{0};
  Mutex mu_;
  std::condition_variable done_;
  size_t pending_ ZT_GUARDED_BY(mu_);
  std::exception_ptr first_exception_ ZT_GUARDED_BY(mu_);
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  {
    MutexLock lock(mu_);
    parked_.assign(num_threads, 0);
    idle_.reserve(num_threads);
  }
  wake_ = std::make_unique<std::condition_variable[]>(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  for (size_t i = 0; i < workers_.size(); ++i) wake_[i].notify_one();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_of == this; }

void ThreadPool::Submit(std::function<void()> task) {
  std::condition_variable* wake = nullptr;
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
    if (!idle_.empty()) {
      const size_t id = idle_.back();
      idle_.pop_back();
      parked_[id] = 0;
      wake = &wake_[id];
    }
  }
  if (wake != nullptr) wake->notify_one();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.wait(lock.unique_lock());
  if (first_exception_ != nullptr) {
    std::exception_ptr e = std::exchange(first_exception_, nullptr);
    lock.Unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::WorkerLoop(size_t id) {
  tls_worker_of = this;
  MutexLock lock(mu_);
  for (;;) {
    if (tasks_.empty()) {
      if (shutting_down_) return;
      // Park on top of the idle stack. A worker that just finished a task
      // parks in the same critical section that counted it done, so it is
      // on top by the time Wait() returns.
      parked_[id] = 1;
      idle_.push_back(id);
      while (parked_[id] != 0 && !shutting_down_) {
        wake_[id].wait(lock.unique_lock());
      }
      continue;
    }
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop();
    lock.Unlock();
    // A throwing task must neither unwind into the worker thread (which
    // would std::terminate the process) nor skip the in_flight_ decrement
    // (which would wedge Wait() forever). Capture the first exception for
    // Wait() to rethrow and keep the bookkeeping exact either way.
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    task = nullptr;  // its captures go before the lock is retaken
    lock.Lock();
    if (thrown != nullptr && first_exception_ == nullptr) {
      first_exception_ = std::move(thrown);
    }
    --in_flight_;
    if (in_flight_ == 0) all_done_.notify_all();
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1 ||
      pool->OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ForkJoin join(n, std::min(n, pool->num_threads()), fn);
  pool->Submit([&join, pool] { join.Fork(pool); });
  join.Join();
}

}  // namespace zerotune
