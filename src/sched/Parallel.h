//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parallel primitive: no queue and no condition variable, only an
/// atomic index counter that the caller and the threads it starts claim from.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SCHED_PARALLEL_H
#define RUSTSIGHT_SCHED_PARALLEL_H

#include <cstddef>
#include <functional>

namespace rs::sched {

/// The number of CPUs this process may run on (its affinity mask: a pinned
/// process gains nothing from more threads), else hardware_concurrency, or 1.
unsigned defaultWorkerCount();

/// Runs Fn(0..N-1) on the caller and min(Workers, N) - 1 threads it starts,
/// each claiming the next index, then joins them; 0 Workers means the default.
/// An exception escaping \p Fn ends only its index; callers record failures.
void parallelFor(unsigned Workers, size_t N,
                 const std::function<void(size_t)> &Fn);

} // namespace rs::sched

#endif // RUSTSIGHT_SCHED_PARALLEL_H
