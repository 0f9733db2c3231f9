#include "sched/Parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <sched.h>

namespace rs::sched {

unsigned defaultWorkerCount() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    if (int N = CPU_COUNT(&Set); N > 0)
      return static_cast<unsigned>(N);
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void parallelFor(unsigned Workers, size_t N,
                 const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Claim = [&Fn, &Next, N] {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;)
      try {
        Fn(I);
      } catch (...) {
      }
  };
  const size_t Threads =
      std::min<size_t>(Workers == 0 ? defaultWorkerCount() : Workers, N);
  std::vector<std::thread> Started;
  for (size_t T = 1; T < Threads; ++T)
    try {
      Started.emplace_back(Claim);
    } catch (...) {
      break; // Out of threads: those started and the caller claim the rest.
    }
  Claim();
  for (std::thread &T : Started)
    T.join();
}

} // namespace rs::sched
