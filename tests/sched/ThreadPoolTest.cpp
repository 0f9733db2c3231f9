//===----------------------------------------------------------------------===//
//
// Tests for the work-stealing thread pool: completion guarantees, real
// concurrency, stealing, nested submission, exception containment, and
// clean shutdown. These suites also run under ThreadSanitizer in CI.
//
//===----------------------------------------------------------------------===//

#include "sched/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace rs::sched;

TEST(ThreadPool, ExecutesEveryTask) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I != 1000; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1000);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.workerCount(), 1u);
  EXPECT_EQ(Pool.workerCount(), ThreadPool::defaultWorkerCount());
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Slots(257);
  parallelFor(Pool, Slots.size(), [&Slots](size_t I) {
    Slots[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != Slots.size(); ++I)
    EXPECT_EQ(Slots[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForZeroTasksReturnsImmediately) {
  ThreadPool Pool(2);
  parallelFor(Pool, 0, [](size_t) { FAIL() << "no task should run"; });
}

TEST(ThreadPool, ParallelForThrowingIndexEndsOnlyThatIndex) {
  // One worker claims every index, so a throw that ended its claim loop
  // would leave the later indices unrun.
  ThreadPool Pool(1);
  std::vector<int> Ran(64, 0);
  parallelFor(Pool, Ran.size(), [&Ran](size_t I) {
    if (I % 2 == 0)
      throw std::runtime_error("index fault");
    Ran[I] = 1;
  });
  for (size_t I = 0; I != Ran.size(); ++I)
    EXPECT_EQ(Ran[I], int(I % 2)) << "index " << I;
}

TEST(ThreadPool, RunsTasksConcurrently) {
  // Two tasks that each wait for the other to start can only finish if two
  // workers run them simultaneously.
  ThreadPool Pool(2);
  std::atomic<int> Started{0};
  for (int I = 0; I != 2; ++I)
    Pool.submit([&Started] {
      Started.fetch_add(1);
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (Started.load() < 2 &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::yield();
    });
  Pool.wait();
  EXPECT_EQ(Started.load(), 2);
}

TEST(ThreadPool, IdleWorkersStealFromBusySiblings) {
  // One long task pins a worker while its deque still holds half the short
  // tasks (round-robin distribution); the other worker must steal to drain
  // them, so a completed run with steals proves the path works.
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  for (int I = 0; I != 200; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 200);
  EXPECT_GT(Pool.stealCount(), 0u);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int I = 0; I != 10; ++I)
    Pool.submit([&Pool, &Count] {
      Pool.submit([&Count] { Count.fetch_add(1); });
      Count.fetch_add(1);
    });
  Pool.wait(); // Nested tasks are counted in-flight before parents finish.
  EXPECT_EQ(Count.load(), 20);
}

TEST(ThreadPool, ThrowingTaskDoesNotKillThePool) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int I = 0; I != 50; ++I) {
    Pool.submit([] { throw std::runtime_error("task fault"); });
    Pool.submit([&Count] { Count.fetch_add(1); });
  }
  Pool.wait();
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    for (int I = 0; I != 100; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    // No wait(): the destructor must finish everything before joining.
  }
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Round = 0; Round != 3; ++Round) {
    for (int I = 0; I != 20; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 20);
  }
}
