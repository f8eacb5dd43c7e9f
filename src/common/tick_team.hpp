// Persistent worker team for fork/join parallelism.
//
// It runs both fork/joins in the tree: the sharded network tick, which
// fires every simulated cycle, and harness::for_each_seed, whose lanes
// each run whole per-seed simulations (milliseconds to seconds apiece).
// TickTeam keeps `lanes - 1` workers parked on a barrier and runs one
// callable across all lanes per run() call: two barrier crossings and zero
// allocations per tick, which is what preserves the kernel's
// zero-allocation steady state under threads.
//
// SpinBarrier is sense-reversing via a generation counter: arrivals spin
// briefly (the common case when every lane finishes within a cycle's
// work), then yield, then park on C++20 atomic wait — so an oversubscribed
// machine (more lanes than cores, including the 1-hardware-thread case)
// degrades to futex sleeps instead of burning timeslices.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace wormsched {

/// Reusable barrier for a fixed set of `parties` threads.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::uint32_t parties) : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all `parties` threads have arrived.  The barrier resets
  /// itself; the same set of threads may reuse it any number of times.
  void arrive_and_wait() {
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    // Short spin first: when every lane's slice of the cycle is similar
    // (the design point) the last arrival is microseconds away.
    for (int spin = 0; spin < 128; ++spin) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
    }
    // Yield a few times before parking: on an oversubscribed machine the
    // straggler needs our core, not our spinning.
    for (int y = 0; y < 4; ++y) {
      std::this_thread::yield();
      if (generation_.load(std::memory_order_acquire) != gen) return;
    }
    while (generation_.load(std::memory_order_acquire) == gen)
      generation_.wait(gen, std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint32_t> generation_{0};
  const std::uint32_t parties_;
};

/// Fixed team of lanes executing one callable per run() call.  The caller
/// is lane 0; `lanes - 1` worker threads are spawned at construction and
/// live until destruction.  `lanes <= 1` spawns nothing and run() executes
/// inline — the serial path stays byte-for-byte the single-threaded code.
class TickTeam {
 public:
  explicit TickTeam(std::uint32_t lanes);
  ~TickTeam();

  TickTeam(const TickTeam&) = delete;
  TickTeam& operator=(const TickTeam&) = delete;

  [[nodiscard]] std::uint32_t lanes() const { return lanes_; }

  /// Runs fn(lane) on every lane in [0, lanes) concurrently and returns
  /// when all lanes have finished.  The callable is invoked by reference —
  /// no copy, no allocation.  The first exception thrown by any lane is
  /// rethrown here after all lanes have joined the end barrier (the
  /// remaining lanes complete their work first, so the caller sees a
  /// consistent quiesced state).
  template <typename F>
  void run(F&& fn) {
    if (workers_.empty()) {
      fn(std::uint32_t{0});
      return;
    }
    using Fn = std::remove_reference_t<F>;
    run_impl(
        [](void* ctx, std::uint32_t lane) { (*static_cast<Fn*>(ctx))(lane); },
        std::addressof(fn));
  }

 private:
  using Trampoline = void (*)(void*, std::uint32_t);

  void run_impl(Trampoline job, void* ctx);
  void worker_loop(std::uint32_t lane);
  void record_exception();

  const std::uint32_t lanes_;
  SpinBarrier start_;
  SpinBarrier done_;
  // Published before the start barrier, read after it (the barrier's
  // release/acquire pair is the happens-before edge).
  Trampoline job_ = nullptr;
  void* ctx_ = nullptr;
  bool stopping_ = false;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace wormsched
