// Reactor: one thread, one Poller, one TimerWheel — the event loop of the
// event-driven connection layer (DESIGN.md §12). Everything interesting
// happens on the loop thread: I/O handlers run there on readiness events,
// timer callbacks run there when the wheel fires, and posted tasks run
// there between waits. That single-threaded discipline is what lets a
// connection state machine mutate freely without per-connection locks.
//
// Thread-safety contract:
//   * add_fd / remove_fd / post / run_sync — callable from any thread
//     (they marshal onto the loop via post + Poller::wake)
//   * set_interest / schedule / cancel_timer — loop thread only (they are
//     hot-path calls; the marshal cost would defeat the point)
//   * handlers and timer callbacks always execute on the loop thread
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "concurrency/timer_wheel.hpp"
#include "net/poller.hpp"

namespace spi {

class Reactor {
 public:
  struct Options {
    std::string name = "reactor";
    /// Timer wheel granularity: connection timeouts are only this exact.
    Duration timer_tick = std::chrono::milliseconds(5);
    size_t timer_slots = 512;
    /// Poller events drained per loop iteration.
    size_t max_events = 1024;
    /// Pin the loop thread to this CPU (-1 = unpinned). Pinning keeps a
    /// per-core reactor's cache + RSS steering on its core (DESIGN.md
    /// §13); best-effort — failure logs and runs unpinned.
    int cpu_affinity = -1;
  };

  /// Called on the loop thread with the Readiness bits that fired.
  using IoHandler = std::function<void(std::uint32_t)>;

  /// Null poller: the platform default (epoll on Linux, else poll(2)).
  Reactor();
  explicit Reactor(Options options,
                   std::unique_ptr<net::Poller> poller = nullptr);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the loop thread. Throws SpiError on double start.
  void start();

  /// Stops the loop and joins its thread. Registered handlers are
  /// destroyed; pending timers never fire. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool on_loop_thread() const;

  /// Registers `fd` and returns its token. Thread-safe; the registration
  /// takes effect on the loop thread (immediately when called there).
  std::uint64_t add_fd(int fd, std::uint32_t interest, IoHandler handler);

  /// Replaces a registration's interest bits. Loop thread only.
  void set_interest(std::uint64_t token, std::uint32_t interest);

  /// Deregisters; the handler is destroyed on the loop thread. The caller
  /// remains responsible for closing the fd (after this call, so the
  /// poller never watches a dead descriptor). Thread-safe.
  void remove_fd(std::uint64_t token);

  /// Arms a wheel timer. Loop thread only.
  TimerWheel::TimerId schedule(Duration delay, TimerWheel::Callback callback);
  bool cancel_timer(TimerWheel::TimerId id);

  /// Enqueues `task` to run on the loop thread. Thread-safe. Tasks posted
  /// after stop() are dropped (shutdown races resolve to "not run"). Only
  /// a post into an empty queue wakes the poller; posts that find tasks
  /// already queued ride that wake.
  void post(std::function<void()> task);

  /// post() that reports acceptance: false means the loop is already past
  /// its final drain and the task will never run, so the caller must
  /// handle completion itself. True guarantees the task runs (the final
  /// drain executes everything enqueued before the gate closed).
  bool try_post(std::function<void()> task);

  /// post() + wait for completion. Runs inline when already on the loop
  /// thread or when the loop is not running (then there is nothing to
  /// race with).
  void run_sync(std::function<void()> task);

  // --- telemetry views (spi_reactor_* gauges) --------------------------
  std::uint64_t iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }
  size_t fd_count() const {
    return fd_count_.load(std::memory_order_relaxed);
  }
  size_t timer_depth() const {
    return timer_depth_.load(std::memory_order_relaxed);
  }
  std::string_view backend() const { return poller_->backend(); }
  const std::string& name() const { return options_.name; }

 private:
  struct Registration {
    int fd = -1;
    std::uint32_t interest = 0;
    IoHandler handler;
  };

  void run();
  void drain_posted();

  Options options_;
  std::unique_ptr<net::Poller> poller_;
  TimerWheel wheel_;
  std::unordered_map<std::uint64_t, Registration> registrations_;
  std::atomic<std::uint64_t> next_token_{1};

  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
  /// Loop-owned: drain_posted() swaps posted_ into it, so the two buffers
  /// trade places and keep their capacity instead of allocating per drain.
  std::vector<std::function<void()>> draining_;
  /// Guarded by post_mutex_; flipped off by the loop as its very last act
  /// so run_sync() can tell "will run" from "must run inline" race-free.
  bool accepting_posts_ = false;

  std::jthread thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::thread::id> loop_thread_id_{};

  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<size_t> fd_count_{0};
  std::atomic<size_t> timer_depth_{0};
};

}  // namespace spi
