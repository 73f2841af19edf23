// Minimal fork-join worker pool.
//
// The explorer forks its successor-generation stage once per frontier
// window — hundreds of forks a second, each a fraction of a millisecond of
// work — and the naming sweep forks once per sweep with long jobs. Spawning
// threads per fork would dominate the short ones, so the pool keeps its
// threads parked on a condition variable between rounds. The caller
// participates as a worker, which keeps a 1-worker pool free of any
// cross-thread handoff.
//
// Logical workers are decoupled from OS threads: the pool runs `workers`
// logical worker indices on at most hardware_concurrency() OS threads.
// Oversubscribing a core with more runnable threads than it can schedule
// buys nothing except context-switch latency and lock-holder preemption, so
// surplus logical workers are multiplexed onto the available threads
// instead. Each index is still invoked exactly once per run(), so callers
// can keep per-worker state regardless of the mapping.
//
// Indices are claimed dynamically, and run() returns as soon as every index
// has finished: it never waits for a parked thread to wake up and check in
// (tens to hundreds of microseconds on a virtual machine), because the
// caller claims whatever that thread has not. A fork whose work is shorter
// than a wake-up thus costs about what running it inline does. While
// indices claimed by other threads are still running, the caller polls for
// up to kSpin before parking itself.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/check.hpp"

namespace anoncoord {

class thread_pool {
 public:
  /// How long run() polls for indices still running on other threads
  /// before parking.
  static constexpr std::chrono::microseconds kSpin{1000};

  /// `workers` >= 1 logical workers; the calling thread counts as one OS
  /// thread, so min(workers, hardware_concurrency) - 1 threads spawn.
  explicit thread_pool(int workers) : workers_(workers) {
    ANONCOORD_REQUIRE(workers >= 1, "a pool needs at least one worker");
    const int hw = std::max(1, static_cast<int>(
                                   std::thread::hardware_concurrency()));
    const int os_threads = std::min(workers, hw);
    threads_.reserve(static_cast<std::size_t>(os_threads - 1));
    for (int t = 1; t < os_threads; ++t)
      threads_.emplace_back([this] { thread_loop(); });
  }

  ~thread_pool() {
    stop_.store(true);
    {
      std::lock_guard lk(mu_);
    }
    wake_.notify_all();
  }  // jthreads join

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  int workers() const { return workers_; }

  /// Run job(worker_index) once for every index in 0 .. workers-1 and block
  /// until all return. The first exception thrown is rethrown here.
  void run(const std::function<void(int)>& job) {
    const std::uint64_t round = ++round_;
    job_.store(&job, std::memory_order_relaxed);
    pending_.store(workers_, std::memory_order_relaxed);
    ticket_.store(round << 32);  // publishes job_ and pending_
    if (!threads_.empty()) {
      {
        std::lock_guard lk(mu_);  // orders the store before parked waiters
      }
      wake_.notify_all();
    }
    drain(round);
    // Indices claimed by other threads may still be running: poll, then
    // park.
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    for (unsigned i = 1; pending_.load() != 0; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#endif
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
        std::unique_lock lk(mu_);
        done_.wait(lk, [&] { return pending_.load() == 0; });
      }
    }
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  /// Claim and run this round's logical worker indices until none are
  /// left. The ticket packs (round, next index), so a thread that arrives
  /// after its round ended can never claim an index of the next one.
  void drain(std::uint64_t round) {
    std::uint64_t t = ticket_.load();
    for (;;) {
      if ((t >> 32) != round ||
          (t & 0xffffffffu) >= static_cast<std::uint64_t>(workers_))
        return;
      if (!ticket_.compare_exchange_weak(t, t + 1)) continue;
      const int w = static_cast<int>(t & 0xffffffffu);
      try {
        (*job_.load(std::memory_order_relaxed))(w);
      } catch (...) {
        std::lock_guard lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
      if (pending_.fetch_sub(1) == 1) {
        {
          std::lock_guard lk(mu_);
        }
        done_.notify_one();
      }
      t = ticket_.load();
    }
  }

  void thread_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock lk(mu_);
        wake_.wait(lk, [&] {
          return stop_.load() || (ticket_.load() >> 32) != seen;
        });
      }
      if (stop_.load()) return;
      seen = ticket_.load() >> 32;
      drain(seen);
    }
  }

  int workers_;
  std::uint64_t round_ = 0;  ///< caller-side round counter
  std::atomic<std::uint64_t> ticket_{0};  ///< round << 32 | next index
  std::atomic<const std::function<void(int)>*> job_{nullptr};
  std::atomic<int> pending_{0};  ///< indices of this round not yet finished
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::exception_ptr error_;
  std::vector<std::jthread> threads_;
};

}  // namespace anoncoord
