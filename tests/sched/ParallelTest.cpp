//===----------------------------------------------------------------------===//
//
// Tests for parallelFor: each index runs exactly once, the caller works,
// the thread count is bounded, indices really run concurrently, and an
// exception ends only its index. These suites also run under
// ThreadSanitizer in CI.
//
//===----------------------------------------------------------------------===//

#include "sched/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

using namespace rs::sched;

namespace {

/// Runs parallelFor(Workers, N) with every index blocking until all N have
/// started (or a 10 s deadline passes, so a serial regression fails rather
/// than hangs). Returns the threads that ran an index; sets \p AllMet when
/// every index saw all N started.
std::set<std::thread::id> runBarrier(unsigned Workers, size_t N,
                                     bool &AllMet) {
  std::atomic<size_t> Started{0}, Met{0};
  std::mutex M;
  std::set<std::thread::id> Ids;
  parallelFor(Workers, N, [&](size_t) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Ids.insert(std::this_thread::get_id());
    }
    Started.fetch_add(1);
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Started.load() < N && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
    if (Started.load() == N)
      Met.fetch_add(1);
  });
  AllMet = Met.load() == N;
  return Ids;
}

/// The threads that ran an index of parallelFor(Workers, N).
std::set<std::thread::id> threadsThatRan(unsigned Workers, size_t N) {
  std::mutex M;
  std::set<std::thread::id> Ids;
  parallelFor(Workers, N, [&](size_t) {
    std::lock_guard<std::mutex> Lock(M);
    Ids.insert(std::this_thread::get_id());
  });
  return Ids;
}

} // namespace

TEST(Parallel, EachIndexRunsExactlyOnce) {
  // Three rounds per shape: back-to-back calls share nothing.
  for (int Round = 0; Round != 3; ++Round)
    for (unsigned Workers : {1u, 2u, 8u})
      for (size_t N : {size_t(0), size_t(1), size_t(257)}) {
        std::vector<std::atomic<int>> Slots(N);
        parallelFor(Workers, N, [&Slots](size_t I) {
          Slots[I].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t I = 0; I != N; ++I)
          EXPECT_EQ(Slots[I].load(), 1)
              << "workers " << Workers << ", N " << N << ", index " << I;
      }
}

TEST(Parallel, ZeroIndicesRunNothing) {
  parallelFor(2, 0, [](size_t) { FAIL() << "no index should run"; });
}

TEST(Parallel, ThrowingIndexEndsOnlyThatIndex) {
  // With one worker a single claim loop runs every index, so a throw that
  // ended the loop would leave the later indices unrun.
  for (unsigned Workers : {1u, 4u}) {
    std::vector<int> Ran(64, 0);
    parallelFor(Workers, Ran.size(), [&Ran](size_t I) {
      if (I % 2 == 0)
        throw std::runtime_error("index fault");
      Ran[I] = 1;
    });
    for (size_t I = 0; I != Ran.size(); ++I)
      EXPECT_EQ(Ran[I], int(I % 2)) << "workers " << Workers << ", index " << I;
  }
}

TEST(Parallel, ZeroWorkersMeansDefaultWorkerCount) {
  const unsigned Default = defaultWorkerCount();
  ASSERT_GE(Default, 1u);
  bool AllMet = false;
  EXPECT_EQ(runBarrier(0, Default, AllMet).size(), Default);
  EXPECT_TRUE(AllMet);
}

TEST(Parallel, IndicesThatWaitForEachOtherBothFinish) {
  // Two indices that each wait for the other to start can only both see
  // it if two threads run them at once.
  bool AllMet = false;
  runBarrier(2, 2, AllMet);
  EXPECT_TRUE(AllMet);
}

TEST(Parallel, CallerThreadRunsIndices) {
  const std::thread::id Caller = std::this_thread::get_id();
  EXPECT_EQ(threadsThatRan(1, 16), std::set<std::thread::id>{Caller});
  // Three indices held at once by three workers: one of them is the caller.
  bool AllMet = false;
  std::set<std::thread::id> Ids = runBarrier(3, 3, AllMet);
  EXPECT_TRUE(AllMet);
  EXPECT_EQ(Ids.size(), 3u);
  EXPECT_EQ(Ids.count(Caller), 1u);
}

TEST(Parallel, AtMostMinWorkersAndNThreadsRun) {
  for (auto [Workers, N] :
       {std::pair<unsigned, size_t>{3, 1000}, {8, 2}, {4, 1}})
    EXPECT_LE(threadsThatRan(Workers, N).size(), std::min<size_t>(Workers, N))
        << "workers " << Workers << ", N " << N;
}
