#include "core/auto_batcher.hpp"

#include "common/logging.hpp"

namespace spi::core {

AutoBatcher::AutoBatcher(SpiClient& client, Options options)
    : client_(client), options_(options) {
  if (options_.max_batch == 0) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "AutoBatcher: max_batch must be > 0");
  }
  flusher_ = std::jthread([this] { flusher_loop(); });
}

AutoBatcher::~AutoBatcher() { shutdown(); }

std::future<CallOutcome> AutoBatcher::call_async(ServiceCall call) {
  std::future<CallOutcome> future;
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) {
      throw SpiError(ErrorCode::kShutdown, "AutoBatcher is shut down");
    }
    if (pending_.empty()) {
      oldest_enqueue_time_ = std::chrono::steady_clock::now();
    }
    PendingCall entry;
    entry.call = std::move(call);
    future = entry.promise.get_future();
    pending_.push_back(std::move(entry));
    ++stats_.calls;
  }
  wake_.notify_one();
  return future;
}

std::future<CallOutcome> AutoBatcher::call_async(std::string service,
                                                 std::string operation,
                                                 soap::Struct params) {
  return call_async(make_call(std::move(service), std::move(operation),
                              std::move(params)));
}

void AutoBatcher::flush() {
  std::unique_lock lock(mutex_);
  std::uint64_t my_generation = ++flush_generation_;
  wake_.notify_one();
  flush_done_.wait(lock, [&] {
    return (flushed_generation_ >= my_generation && outstanding_async_ == 0) ||
           shutdown_;
  });
}

void AutoBatcher::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  wake_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Async batches shipped before shutdown complete on the reactor loop;
  // wait for them so no completion touches a destroyed batcher.
  std::unique_lock lock(mutex_);
  flush_done_.wait(lock, [&] { return outstanding_async_ == 0; });
}

size_t AutoBatcher::pending() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

AutoBatcher::Stats AutoBatcher::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void AutoBatcher::complete_batch(std::vector<PendingCall>& batch,
                                 bool timer_triggered,
                                 Result<std::vector<CallOutcome>> result) {
  // Count the batch BEFORE fulfilling the promises: a caller woken by
  // future.get() must already see this flush in stats().
  {
    std::lock_guard lock(mutex_);
    ++stats_.batches;
    if (timer_triggered) {
      ++stats_.timer_flushes;
    } else {
      ++stats_.full_flushes;
    }
    stats_.largest_batch = std::max(stats_.largest_batch, batch.size());
  }

  if (result.ok()) {
    std::vector<CallOutcome>& outcomes = result.value();
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(outcomes[i]));
    }
  } else {
    // Message-level failure: every member sees it, like call_packed().
    for (PendingCall& entry : batch) {
      entry.promise.set_value(CallOutcome(result.error()));
    }
  }
}

void AutoBatcher::send_batch(std::vector<PendingCall> batch,
                             bool timer_triggered) {
  std::vector<ServiceCall> calls;
  calls.reserve(batch.size());
  for (PendingCall& entry : batch) {
    calls.push_back(entry.call);
  }

  if (client_.async_enabled()) {
    // The reactor drives the exchange; this flusher thread goes straight
    // back to forming the next batch instead of being tied up for one
    // round trip per batch. Completion (promise fulfilment) runs on the
    // loop thread; flush()/shutdown() rendezvous via outstanding_async_.
    auto shipped = std::make_shared<std::vector<PendingCall>>(std::move(batch));
    {
      std::lock_guard lock(mutex_);
      ++outstanding_async_;
    }
    client_.execute_packed_async(
        std::move(calls), PackMode::kAuto,
        [this, shipped, timer_triggered](SpiClient::PackedResult result) {
          complete_batch(*shipped, timer_triggered, std::move(result));
          // Notify under the lock: shutdown() may return, and the batcher
          // be destroyed, the moment it reads zero outstanding batches.
          std::lock_guard lock(mutex_);
          --outstanding_async_;
          flush_done_.notify_all();
        });
    return;
  }

  // kAuto: a lone call still travels as a cheap traditional message.
  complete_batch(batch, timer_triggered,
                 client_.execute_packed(calls, PackMode::kAuto));
}

void AutoBatcher::flusher_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    // Wait for a reason to flush: batch full, timer on the oldest pending
    // call, an explicit flush(), or shutdown.
    while (true) {
      if (shutdown_) break;
      if (pending_.size() >= options_.max_batch) break;
      if (flush_generation_ > flushed_generation_) break;
      if (pending_.empty()) {
        wake_.wait(lock);
        continue;
      }
      auto deadline = oldest_enqueue_time_ + options_.max_delay;
      if (std::chrono::steady_clock::now() >= deadline) break;
      wake_.wait_until(lock, deadline);
    }

    const bool stopping = shutdown_;
    const bool batch_full = pending_.size() >= options_.max_batch;
    const std::uint64_t generation = flush_generation_;
    std::vector<PendingCall> batch = std::move(pending_);
    pending_.clear();

    lock.unlock();
    if (!batch.empty()) {
      send_batch(std::move(batch), /*timer_triggered=*/!batch_full);
    }
    lock.lock();

    flushed_generation_ = std::max(flushed_generation_, generation);
    flush_done_.notify_all();

    if (stopping && pending_.empty()) return;
  }
}

void AutoBatcher::bind_metrics(telemetry::MetricsRegistry& registry) {
  auto field = [this](std::uint64_t Stats::*member) {
    return [this, member]() -> double {
      return static_cast<double>(stats().*member);
    };
  };
  registry.add_callback("spi_batcher_calls_total",
                        "Calls accepted by the automatic batcher",
                        telemetry::CallbackKind::kCounter, {},
                        field(&Stats::calls));
  registry.add_callback("spi_batcher_batches_total",
                        "Packed messages shipped by the batcher",
                        telemetry::CallbackKind::kCounter, {},
                        field(&Stats::batches));
  registry.add_callback("spi_batcher_full_flushes_total",
                        "Flushes triggered by max_batch",
                        telemetry::CallbackKind::kCounter, {},
                        field(&Stats::full_flushes));
  registry.add_callback("spi_batcher_timer_flushes_total",
                        "Flushes triggered by max_delay or flush()",
                        telemetry::CallbackKind::kCounter, {},
                        field(&Stats::timer_flushes));
  registry.add_callback("spi_batcher_pending_calls",
                        "Calls waiting for the next batch",
                        telemetry::CallbackKind::kGauge, {},
                        [this]() -> double {
                          return static_cast<double>(pending());
                        });
}

}  // namespace spi::core
