//===- engine/Pool.h - Fixed thread pool and cancellation -------*- C++ -*-===//
//
// Part of sharpie. A small fixed-size thread pool used by the set-tuple
// search (synth/Synth.cpp), whose calling thread works alongside it as
// worker 0: callers submit jobs, wait for the batch to drain, and signal
// cooperative cancellation through a shared token. Every tuple attempt
// owns all its state (TermManager, SMT solvers), so the pool needs no
// affinity or stealing machinery beyond a shared queue -- load balancing
// happens at the job level via an atomic work cursor.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_ENGINE_POOL_H
#define SHARPIE_ENGINE_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace sharpie {
namespace engine {

/// Cooperative cancellation flag shared between a driver and its workers.
/// Cancellation is one-way and sticky.
class CancellationToken {
public:
  void cancel() { Flag.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return Flag.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// A fixed pool of threads draining a shared job queue. A job that
/// throws does not kill its worker: the exception is contained, counted,
/// and the first error message is recorded for the driver to report.
/// The destructor waits for queued jobs to finish.
class ThreadPool {
public:
  explicit ThreadPool(unsigned NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// Enqueues \p Job for execution on some pool thread.
  void submit(std::function<void()> Job);

  /// Blocks until every submitted job has completed.
  void wait();

  /// Number of jobs that escaped with an exception.
  uint64_t jobFailures() const { return Failures.load(std::memory_order_relaxed); }

  /// Jobs currently queued or running -- a point-in-time depth gauge for
  /// monitoring; racy by nature, never used for synchronization.
  unsigned pending() const {
    std::lock_guard<std::mutex> L(Mu);
    return Pending;
  }

  /// what() of the first escaped exception ("" when none, "unknown
  /// exception" for non-std throws). Read after wait().
  std::string firstJobError() const;

  /// The effective worker count for a requested \p NumWorkers: 0 means
  /// "one per hardware thread", anything else is taken literally.
  static unsigned effectiveWorkers(unsigned NumWorkers);

private:
  void workerLoop();

  std::vector<std::thread> Threads;
  std::queue<std::function<void()>> Jobs;
  std::atomic<uint64_t> Failures{0};
  std::string FirstError; ///< Guarded by Mu.
  mutable std::mutex Mu;
  std::condition_variable JobReady;  ///< Signals workers: job or shutdown.
  std::condition_variable AllIdle;   ///< Signals wait(): queue drained.
  unsigned Pending = 0;              ///< Queued + running jobs.
  bool Shutdown = false;
};

} // namespace engine
} // namespace sharpie

#endif // SHARPIE_ENGINE_POOL_H
