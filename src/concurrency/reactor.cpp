#include "concurrency/reactor.hpp"

#include <algorithm>
#include <condition_variable>

#include "common/logging.hpp"

namespace spi {

namespace {
/// With no timers armed the loop still wakes periodically so gauges stay
/// fresh and a missed wake() can only stall the loop briefly.
constexpr Duration kIdleWait = std::chrono::milliseconds(250);
}  // namespace

Reactor::Reactor() : Reactor(Options{}) {}

Reactor::Reactor(Options options, std::unique_ptr<net::Poller> poller)
    : options_(std::move(options)),
      poller_(poller ? std::move(poller) : net::Poller::create()),
      wheel_(options_.timer_tick, options_.timer_slots) {}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "reactor '" + options_.name + "' already started");
  }
  {
    std::lock_guard lock(post_mutex_);
    accepting_posts_ = true;
  }
  thread_ = std::jthread([this] { run(); });
}

void Reactor::stop() {
  if (on_loop_thread()) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "Reactor::stop() called from the loop thread");
  }
  running_.store(false, std::memory_order_release);
  poller_->wake();
  if (thread_.joinable()) thread_.join();
  // The loop is gone: safe to tear down its state from this thread.
  for (auto& [token, registration] : registrations_) {
    (void)poller_->remove(registration.fd);
  }
  registrations_.clear();
  fd_count_.store(0, std::memory_order_relaxed);
}

bool Reactor::on_loop_thread() const {
  return loop_thread_id_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

std::uint64_t Reactor::add_fd(int fd, std::uint32_t interest,
                              IoHandler handler) {
  if (fd < 0 || !handler) {
    throw SpiError(ErrorCode::kInvalidArgument, "Reactor::add_fd");
  }
  const std::uint64_t token =
      next_token_.fetch_add(1, std::memory_order_relaxed);
  auto apply = [this, fd, token, interest,
                handler = std::move(handler)]() mutable {
    Status added = poller_->add(fd, token, interest);
    if (!added.ok()) {
      SPI_LOG(kWarn, "reactor")
          << options_.name << ": add_fd failed: " << added.error().to_string();
      return;
    }
    registrations_.emplace(token,
                           Registration{fd, interest, std::move(handler)});
    fd_count_.store(registrations_.size(), std::memory_order_relaxed);
  };
  if (on_loop_thread() || !running()) {
    apply();
  } else {
    post(std::move(apply));
  }
  return token;
}

void Reactor::set_interest(std::uint64_t token, std::uint32_t interest) {
  auto it = registrations_.find(token);
  if (it == registrations_.end()) return;
  if (it->second.interest == interest) return;
  Status modified = poller_->modify(it->second.fd, token, interest);
  if (modified.ok()) {
    it->second.interest = interest;
  } else {
    SPI_LOG(kWarn, "reactor") << options_.name << ": set_interest failed: "
                              << modified.error().to_string();
  }
}

void Reactor::remove_fd(std::uint64_t token) {
  // Synchronous so the caller may close the fd the moment this returns.
  run_sync([this, token] {
    auto it = registrations_.find(token);
    if (it == registrations_.end()) return;
    (void)poller_->remove(it->second.fd);
    registrations_.erase(it);
    fd_count_.store(registrations_.size(), std::memory_order_relaxed);
  });
}

TimerWheel::TimerId Reactor::schedule(Duration delay,
                                      TimerWheel::Callback callback) {
  TimerWheel::TimerId id = wheel_.schedule(std::chrono::steady_clock::now(),
                                           delay, std::move(callback));
  timer_depth_.store(wheel_.size(), std::memory_order_relaxed);
  return id;
}

bool Reactor::cancel_timer(TimerWheel::TimerId id) {
  bool cancelled = wheel_.cancel(id);
  timer_depth_.store(wheel_.size(), std::memory_order_relaxed);
  return cancelled;
}

bool Reactor::try_post(std::function<void()> task) {
  bool first = false;
  {
    std::lock_guard lock(post_mutex_);
    if (!accepting_posts_) return false;
    first = posted_.empty();
    posted_.push_back(std::move(task));
  }
  // Only the push that makes the queue non-empty wakes the loop. The loop
  // takes the whole queue on each iteration, so later posts ride this
  // wake; a post after that take finds the queue empty and wakes again.
  if (first) poller_->wake();
  return true;
}

void Reactor::post(std::function<void()> task) {
  if (!try_post(std::move(task))) {
    SPI_LOG(kDebug, "reactor")
        << options_.name << ": dropped post after stop";
  }
}

void Reactor::run_sync(std::function<void()> task) {
  if (on_loop_thread() || !running()) {
    task();
    return;
  }
  struct SyncState {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
  };
  auto state = std::make_shared<SyncState>();
  bool queued = try_post([task = std::move(task), state]() mutable {
    task();
    {
      std::lock_guard lock(state->mutex);
      state->done = true;
    }
    state->done_cv.notify_one();
  });
  if (!queued) {
    // Loop already past its final drain — nothing left to race with.
    task();
    return;
  }
  std::unique_lock lock(state->mutex);
  state->done_cv.wait(lock, [&] { return state->done; });
}

void Reactor::drain_posted() {
  {
    std::lock_guard lock(post_mutex_);
    draining_.swap(posted_);
  }
  for (auto& task : draining_) task();
  draining_.clear();
}

void Reactor::run() {
  loop_thread_id_.store(std::this_thread::get_id(),
                        std::memory_order_release);
  std::vector<net::PollEvent> events(std::max<size_t>(options_.max_events, 1));
  while (running_.load(std::memory_order_acquire)) {
    iterations_.fetch_add(1, std::memory_order_relaxed);
    drain_posted();

    const TimePoint now = std::chrono::steady_clock::now();
    wheel_.advance(now);
    timer_depth_.store(wheel_.size(), std::memory_order_relaxed);

    Duration wait = kIdleWait;
    if (auto next = wheel_.until_next(std::chrono::steady_clock::now())) {
      wait = std::min(wait, std::max(*next, Duration{1}));
    }
    auto ready = poller_->wait(events.data(), events.size(), wait);
    if (!ready.ok()) {
      SPI_LOG(kWarn, "reactor") << options_.name << ": poller wait failed: "
                                << ready.error().to_string();
      continue;
    }
    for (size_t i = 0; i < ready.value(); ++i) {
      auto it = registrations_.find(events[i].token);
      if (it == registrations_.end()) continue;  // removed by earlier handler
      // Copy: the handler may remove_fd(itself), which erases the map slot
      // mid-call.
      IoHandler handler = it->second.handler;
      handler(events[i].events);
    }
  }
  // Final drain, with the gate closed so no task can be enqueued after it
  // and wait forever in run_sync().
  {
    std::lock_guard lock(post_mutex_);
    accepting_posts_ = false;
  }
  drain_posted();
  loop_thread_id_.store(std::thread::id{}, std::memory_order_release);
}

}  // namespace spi
