//===----------------------------------------------------------------------===//
//
// perfbench_hostref: a fixed reference workload that measures how fast the
// host runs right now (perfbench/README.md, "Host speed").
//
//   perfbench_hostref THREADS
//       Runs a fixed amount of hashing, small-allocation, string-building
//       and sorting work per thread on THREADS threads and prints its wall
//       time in milliseconds. The threads take small chunks of the work from
//       a shared counter, as RustSight's thread pool takes files, so a
//       thread the host preempts for a while delays the total no more than
//       it would delay a check.
//
// It links nothing from RustSight, so no change to the program moves it;
// run.py scales the times it reports by it to cancel the host's slow phases.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

constexpr uint32_t ChunksPerThread = 36;

/// One chunk of the work, a few milliseconds of it.
uint64_t work(uint32_t Seed) {
  std::unordered_map<std::string, std::vector<int>> Buckets;
  uint32_t X = Seed * 2654435761u + 1;
  uint64_t Acc = 0;
  for (int I = 0; I < 5000; ++I) {
    X ^= X << 13;
    X ^= X >> 17;
    X ^= X << 5;
    std::string Key = "fn_" + std::to_string(X % 1000) + "_bb" +
                      std::to_string(I % 7);
    std::vector<int> &V = Buckets[Key];
    V.push_back(static_cast<int>(X));
    if (V.size() > 8) {
      std::sort(V.begin(), V.end());
      Acc += static_cast<uint32_t>(V[4]);
      V.clear();
    }
  }
  for (const auto &[Key, V] : Buckets)
    Acc += Key.size() + V.size();
  return Acc;
}

} // namespace

int main(int Argc, char **Argv) {
  int Threads = Argc > 1 ? std::atoi(Argv[1]) : 1;
  if (Threads < 1)
    Threads = 1;
  const uint32_t Chunks = ChunksPerThread * static_cast<uint32_t>(Threads);
  auto T0 = std::chrono::steady_clock::now();
  std::atomic<uint32_t> Next{0};
  std::vector<uint64_t> Sums(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (uint32_t C; (C = Next++) < Chunks;)
        Sums[T] += work(C);
    });
  for (std::thread &T : Pool)
    T.join();
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  // The checksum keeps the work from being optimized away.
  std::printf("%.4f %llu\n", Ms, static_cast<unsigned long long>(Sums[0]));
  return 0;
}
