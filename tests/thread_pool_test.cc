#include "common/thread_pool.h"

#include <array>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace zerotune {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 100);
}

// Regression: a throwing task used to unwind straight out of WorkerLoop —
// std::terminate under libstdc++ — and even a caught exception would have
// skipped the in_flight_ decrement, wedging Wait() forever.
TEST(ThreadPoolTest, ThrowingTaskRethrownFromWait) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran, i] {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("task 7 exploded");
    });
  }
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task 7 exploded");
  }
  // Every task still ran (the throw never skips bookkeeping)...
  EXPECT_EQ(ran.load(), 16);
  // ...and the pool stays usable: the exception was cleared by Wait().
  std::atomic<int> after{0};
  for (int i = 0; i < 8; ++i) pool.Submit([&after] { after.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsKept) {
  ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  pool.Wait();  // subsequent Wait sees a clean slate; must not throw
}

TEST(ParallelForTest, PropagatesExceptionFromWorker) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 256,
                           [](size_t i) {
                             if (i == 100) {
                               throw std::runtime_error("iteration failed");
                             }
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, WorksWithoutPool) {
  std::vector<int> hits(64, 0);
  ParallelFor(nullptr, hits.size(), [&](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ParallelForTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  ParallelFor(&pool, 0, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForTest, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

// A ParallelFor inside a ParallelFor body on the same pool runs inline on
// the worker. Before, the inner call waited in ThreadPool::Wait() for
// every task, its own caller's included, and never returned (the ctest
// timeout catches a regression).
TEST(ParallelForTest, NestedCallOnSamePoolCoversEveryPairOnce) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(&pool, kOuter, [&](size_t i) {
    EXPECT_TRUE(pool.OnWorkerThread());
    ParallelFor(&pool, kInner,
                [&](size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(pool.OnWorkerThread());
}

// ParallelFor keeps its exceptions to itself: a Submit task's exception
// stays for Wait(), and a later ParallelFor neither throws it nor clears
// it.
TEST(ParallelForTest, SubmitTaskExceptionStaysWithWait) {
  ThreadPool pool(4);
  pool.Submit([] { throw std::runtime_error("submitted task failed"); });
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(
      ParallelFor(&pool, 64, [&](size_t) { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 64);
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow the submitted task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "submitted task failed");
  }
}

TEST(ParallelForTest, ConcurrentCallersEachCoverTheirIndicesOnce) {
  ThreadPool pool(4);
  constexpr size_t kCalls = 200;
  constexpr size_t kPerCall = 37;
  std::array<std::vector<std::atomic<int>>, 2> hits;
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kCalls * kPerCall);
  const auto caller = [&](size_t c) {
    for (size_t call = 0; call < kCalls; ++call) {
      ParallelFor(&pool, kPerCall, [&](size_t i) {
        hits[c][call * kPerCall + i].fetch_add(1);
      });
    }
  };
  std::thread first(caller, 0);
  std::thread second(caller, 1);
  first.join();
  second.join();
  for (const auto& h : hits) {
    for (const auto& x : h) ASSERT_EQ(x.load(), 1);
  }
}

// Index 0 throws only once another index is running; that index sleeps,
// then writes to the caller's stack. The exception must not overtake it.
TEST(ParallelForTest, ExceptionWaitsForClaimedIndicesToFinish) {
  ThreadPool pool(4);
  constexpr size_t kN = 8;
  std::array<int, kN> written{};
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    ParallelFor(&pool, kN, [&](size_t i) {
      if (i == 0) {
        for (int spins = 0; started.load() == 0 && spins < 5000; ++spins) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("index 0 failed");
      }
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      written[i] = 1;
      finished.fetch_add(1);
    });
    FAIL() << "ParallelFor must rethrow index 0's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 0 failed");
  }
  EXPECT_GE(started.load(), 1);
  EXPECT_EQ(finished.load(), started.load());
  EXPECT_EQ(std::accumulate(written.begin(), written.end(), 0),
            finished.load());
}

// Submit wakes the most recently parked worker, and a worker re-parks in
// the critical section that counts its task done, so sequential
// Submit/Wait pairs all land on one warm worker.
TEST(ThreadPoolTest, SequentialTasksReuseTheMostRecentlyParkedWorker) {
  ThreadPool pool(4);
  // Rendezvous of all four workers: afterwards every one of them has
  // started and, once Wait() returns, parked.
  std::atomic<int> arrived{0};
  for (int w = 0; w < 4; ++w) {
    pool.Submit([&arrived] {
      arrived.fetch_add(1);
      while (arrived.load() < 4) std::this_thread::yield();
    });
  }
  pool.Wait();
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran_on] { ran_on.insert(std::this_thread::get_id()); });
    pool.Wait();
  }
  EXPECT_EQ(ran_on.size(), 1u);
}

}  // namespace
}  // namespace zerotune
