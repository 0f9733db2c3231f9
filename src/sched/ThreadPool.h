//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing thread pool for corpus-scale analysis. The paper ran
/// its detectors over whole code bases (Servo, TiKV, Parity, the CVE
/// sets); that workload is embarrassingly parallel at file granularity,
/// and PR 1's containment boundaries make each file an independently
/// failable task — exactly the shape a pool wants.
///
/// Design: a fixed set of workers, each with its own deque. Submissions
/// are distributed round-robin across the deques; a worker pops from the
/// front of its own deque and, when empty, steals from the back of a
/// sibling's. Tasks are coarse (one file's parse+analyze), so per-deque
/// mutexes — not lock-free Chase-Lev deques — are the right complexity
/// trade-off: contention is negligible and the implementation is easy to
/// prove clean under ThreadSanitizer.
///
/// Shutdown is clean: the destructor waits for every submitted task to
/// finish, then joins all workers. Tasks must not throw; as a last line
/// of defense the worker loop swallows escaping exceptions so one faulty
/// task cannot take down the pool (the engine's containment boundaries
/// should have caught it long before).
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SCHED_THREADPOOL_H
#define RUSTSIGHT_SCHED_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rs::sched {

class ThreadPool {
public:
  using Task = std::function<void()>;

  /// Spawns \p Workers threads; 0 means defaultWorkerCount().
  explicit ThreadPool(unsigned Workers = 0);

  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The number of CPUs this process may run on (its affinity mask), else
  /// std::thread::hardware_concurrency, clamped to at least 1.
  static unsigned defaultWorkerCount();

  unsigned workerCount() const { return unsigned(Workers.size()); }

  /// Enqueues \p T. Safe to call from any thread, including from inside a
  /// running task (the task goes to the submitting worker's own deque).
  void submit(Task T);

  /// Blocks until every task submitted so far has finished. Reusable: more
  /// work may be submitted afterwards.
  void wait();

  /// Tasks stolen across deques since construction (observability; the
  /// scheduler tests use it to prove stealing actually happens).
  uint64_t stealCount() const {
    return Steals.load(std::memory_order_relaxed);
  }

private:
  struct WorkerState {
    std::mutex M;
    std::deque<Task> Deque;
  };

  void workerLoop(unsigned Me);
  bool tryPop(unsigned Me, Task &Out);

  std::vector<std::unique_ptr<WorkerState>> Queues;
  std::vector<std::thread> Workers;

  /// Guards sleep/wake and completion bookkeeping.
  std::mutex SleepM;
  std::condition_variable WorkCv; ///< Workers sleep here when idle.
  std::condition_variable DoneCv; ///< wait() sleeps here.

  size_t QueuedTasks = 0;   ///< Tasks sitting in some deque (under SleepM).
  size_t InFlightTasks = 0; ///< Queued + currently running (under SleepM).
  bool Stopping = false;    ///< Set once, by the destructor (under SleepM).

  std::atomic<uint64_t> Steals{0};
  std::atomic<size_t> NextQueue{0}; ///< Round-robin submission cursor.
};

/// Runs Fn(0..N-1) across the pool and waits for all of them: one task
/// per worker, each claiming the next unclaimed index. An exception
/// escaping \p Fn ends only its index and is swallowed — callers that care
/// must capture failure state themselves (the engine records it in the
/// per-file report).
void parallelFor(ThreadPool &Pool, size_t N,
                 const std::function<void(size_t)> &Fn);

} // namespace rs::sched

#endif // RUSTSIGHT_SCHED_THREADPOOL_H
