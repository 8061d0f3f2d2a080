// Minimal thread-pool for the trial-parallel experiment engine.
//
// Design constraints (see analysis/experiment.hpp):
//  * Work items are independent trials, each seeded by derive_seed(base, tag,
//    index) — the pool only distributes *indices*, never randomness, so
//    results are bit-identical to a serial loop regardless of thread count or
//    scheduling order.
//  * Trials are coarse (milliseconds to minutes), so a simple
//    condition-variable queue is plenty; no work stealing needed.
//
// The calling thread participates in draining, so ThreadPool(1) runs
// caller-only and the pool is usable even where hardware_concurrency() == 1.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/env.hpp"

namespace ppsim::core {

class ThreadPool {
 public:
  /// Largest pool size: far above any core count trials are run on, far
  /// below a thread count that would exhaust the host.
  static constexpr int kMaxThreads = 256;

  /// `threads` == 0 picks default_threads(). The pool spawns `threads - 1`
  /// workers; the caller of for_index() acts as the remaining one. Throws
  /// std::invalid_argument, before starting any worker, when `threads`
  /// exceeds kMaxThreads.
  explicit ThreadPool(int threads = 0) {
    if (threads > kMaxThreads)
      throw std::invalid_argument(
          "ThreadPool: " + std::to_string(threads) +
          " threads requested, the cap is " + std::to_string(kMaxThreads));
    if (threads <= 0) threads = default_threads();
    threads_ = threads;
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int t = 0; t < threads - 1; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] int size() const noexcept { return threads_; }

  /// Thread count from PPSIM_THREADS, else hardware_concurrency (clamped
  /// to kMaxThreads), else 1. Strict parse (core::env_int, exit(2) on
  /// garbage, and on a value above kMaxThreads); a parsed value <= 0 means
  /// "no override" and falls through to hardware concurrency.
  [[nodiscard]] static int default_threads() {
    const int t = env_int("PPSIM_THREADS", 0);
    if (t > kMaxThreads) {
      std::fprintf(stderr,
                   "ppsim: PPSIM_THREADS=%d exceeds the thread cap %d "
                   "(refusing to start that many threads)\n",
                   t, kMaxThreads);
      std::exit(2);
    }
    if (t > 0) return t;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
  }

  /// Invoke `fn(i)` for every i in [0, count), distributed over the pool.
  /// Blocks until all invocations finish (the caller drains too). If any
  /// invocation throws, the first exception is rethrown here after the batch
  /// completes. Not reentrant: one for_index at a time per pool.
  template <typename F>
  void for_index(std::size_t count, F&& fn) {
    if (count == 0) return;
    Batch batch;
    batch.count = count;
    batch.call = [&fn](std::size_t i) { fn(i); };
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch.active = 1;  // the caller
      batch_ = &batch;
      ++generation_;
    }
    cv_.notify_all();
    drain(batch);
    {
      std::unique_lock<std::mutex> lock(mu_);
      // `active` only changes under mu_, so once it reaches 0 here no worker
      // can touch `batch` again and the stack object can be retired safely.
      done_cv_.wait(lock, [&] { return batch.active == 0; });
      batch_ = nullptr;
    }
    if (batch.error) std::rethrow_exception(batch.error);
  }

 private:
  struct Batch {
    std::function<void(std::size_t)> call;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    int active = 0;  ///< threads attached to this batch; guarded by mu_
    std::exception_ptr error;
    std::mutex error_mu;
  };

  /// Run work items until the batch is exhausted, then detach from it.
  /// Precondition: the calling thread was counted in batch.active under mu_.
  void drain(Batch& batch) {
    for (;;) {
      const std::size_t i =
          batch.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.count) break;
      try {
        batch.call(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch.error_mu);
        if (!batch.error) batch.error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --batch.active;
      if (batch.active == 0) done_cv_.notify_all();
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;  // generation this worker already drained
    for (;;) {
      Batch* batch = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return stop_ || (batch_ != nullptr && generation_ != seen);
        });
        if (stop_) return;
        batch = batch_;
        seen = generation_;
        ++batch->active;  // attach under the lock: for_index can't retire yet
      }
      drain(*batch);
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Batch* batch_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  int threads_ = 1;
};

}  // namespace ppsim::core
