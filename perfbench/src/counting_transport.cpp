#include "counting_transport.hpp"

#include <chrono>

namespace perfbench {

using spi::Error;
using spi::ErrorCode;
using spi::Result;
using spi::Status;
using spi::net::AsyncConnect;
using spi::net::ConstBuffer;
using spi::net::Connection;
using spi::net::Listener;

namespace {

/// Times one I/O call into `counters.io_ns`.
class IoTimer {
 public:
  explicit IoTimer(IoCounters& counters)
      : counters_(counters), start_(std::chrono::steady_clock::now()) {}
  ~IoTimer() {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    counters_.io_ns.fetch_add(static_cast<std::uint64_t>(ns),
                              std::memory_order_relaxed);
  }
  IoTimer(const IoTimer&) = delete;
  IoTimer& operator=(const IoTimer&) = delete;

 private:
  IoCounters& counters_;
  std::chrono::steady_clock::time_point start_;
};

void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

void count_received(IoCounters& counters, const Result<std::string>& result) {
  if (result.ok()) {
    counters.recv_bytes.fetch_add(result.value().size(),
                                  std::memory_order_relaxed);
  }
}

template <typename T>
void count_try(IoCounters& counters, const Result<T>& result) {
  bump(counters.try_calls);
  if (!result.ok() && result.error().code() == ErrorCode::kWouldBlock) {
    bump(counters.would_block);
  }
}

class CountingConnection final : public Connection {
 public:
  CountingConnection(std::unique_ptr<Connection> inner,
                     std::shared_ptr<IoCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  Status send(std::string_view bytes) override {
    IoTimer timer(*counters_);
    bump(counters_->send_calls);
    return inner_->send(bytes);
  }
  Result<std::string> receive(size_t max_bytes) override {
    IoTimer timer(*counters_);
    bump(counters_->recv_calls);
    auto result = inner_->receive(max_bytes);
    count_received(*counters_, result);
    return result;
  }
  Status set_receive_timeout(spi::Duration timeout) override {
    return inner_->set_receive_timeout(timeout);
  }
  void close() override { inner_->close(); }
  void abort() override { inner_->abort(); }

  int native_handle() const override { return inner_->native_handle(); }
  Status set_nonblocking(bool enabled) override {
    return inner_->set_nonblocking(enabled);
  }
  Result<std::string> try_receive(size_t max_bytes) override {
    IoTimer timer(*counters_);
    bump(counters_->recv_calls);
    auto result = inner_->try_receive(max_bytes);
    count_try(*counters_, result);
    count_received(*counters_, result);
    return result;
  }
  Result<size_t> try_send(std::string_view bytes) override {
    IoTimer timer(*counters_);
    bump(counters_->send_calls);
    auto result = inner_->try_send(bytes);
    count_try(*counters_, result);
    return result;
  }
  bool supports_sendv() const override { return inner_->supports_sendv(); }
  Result<size_t> try_sendv(const ConstBuffer* segments,
                           size_t count) override {
    IoTimer timer(*counters_);
    bump(counters_->send_calls);
    auto result = inner_->try_sendv(segments, count);
    count_try(*counters_, result);
    return result;
  }
  Status finish_connect() override { return inner_->finish_connect(); }

 private:
  std::unique_ptr<Connection> inner_;
  std::shared_ptr<IoCounters> counters_;
};

std::unique_ptr<Connection> wrap(std::unique_ptr<Connection> inner,
                                 const std::shared_ptr<IoCounters>& counters) {
  return std::make_unique<CountingConnection>(std::move(inner), counters);
}

class CountingListener final : public Listener {
 public:
  CountingListener(std::unique_ptr<Listener> inner,
                   std::shared_ptr<IoCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  Result<std::unique_ptr<Connection>> accept() override {
    auto accepted = inner_->accept();
    if (!accepted.ok()) return accepted.error();
    return wrap(std::move(accepted).value(), counters_);
  }
  void close() override { inner_->close(); }
  spi::net::Endpoint endpoint() const override { return inner_->endpoint(); }
  int native_handle() const override { return inner_->native_handle(); }
  Status set_nonblocking(bool enabled) override {
    return inner_->set_nonblocking(enabled);
  }
  Result<std::unique_ptr<Connection>> try_accept() override {
    auto accepted = inner_->try_accept();
    if (!accepted.ok()) return accepted.error();
    return wrap(std::move(accepted).value(), counters_);
  }

 private:
  std::unique_ptr<Listener> inner_;
  std::shared_ptr<IoCounters> counters_;
};

Result<std::unique_ptr<Listener>> wrap_listener(
    Result<std::unique_ptr<Listener>> listened,
    const std::shared_ptr<IoCounters>& counters) {
  if (!listened.ok()) return listened.error();
  return std::unique_ptr<Listener>(std::make_unique<CountingListener>(
      std::move(listened).value(), counters));
}

}  // namespace

IoSnapshot IoSnapshot::operator-(const IoSnapshot& earlier) const {
  IoSnapshot delta;
  delta.send_calls = send_calls - earlier.send_calls;
  delta.recv_calls = recv_calls - earlier.recv_calls;
  delta.try_calls = try_calls - earlier.try_calls;
  delta.would_block = would_block - earlier.would_block;
  delta.io_ns = io_ns - earlier.io_ns;
  delta.recv_bytes = recv_bytes - earlier.recv_bytes;
  return delta;
}

CountingTransport::CountingTransport(spi::net::Transport& inner)
    : inner_(inner), counters_(std::make_shared<IoCounters>()) {}

Result<std::unique_ptr<Listener>> CountingTransport::listen(
    const spi::net::Endpoint& at) {
  return wrap_listener(inner_.listen(at), counters_);
}

Result<std::unique_ptr<Listener>> CountingTransport::listen(
    const spi::net::Endpoint& at, const spi::net::ListenOptions& options) {
  return wrap_listener(inner_.listen(at, options), counters_);
}

bool CountingTransport::supports_reuse_port() const {
  return inner_.supports_reuse_port();
}

Result<std::unique_ptr<Connection>> CountingTransport::connect(
    const spi::net::Endpoint& to) {
  auto connected = inner_.connect(to);
  if (!connected.ok()) return connected.error();
  return wrap(std::move(connected).value(), counters_);
}

bool CountingTransport::supports_nonblocking_connect() const {
  return inner_.supports_nonblocking_connect();
}

Result<AsyncConnect> CountingTransport::connect_nonblocking(
    const spi::net::Endpoint& to) {
  auto dial = inner_.connect_nonblocking(to);
  if (!dial.ok()) return dial.error();
  AsyncConnect out = std::move(dial).value();
  out.connection = wrap(std::move(out.connection), counters_);
  return out;
}

IoSnapshot CountingTransport::io() const {
  IoSnapshot s;
  s.send_calls = counters_->send_calls.load(std::memory_order_relaxed);
  s.recv_calls = counters_->recv_calls.load(std::memory_order_relaxed);
  s.try_calls = counters_->try_calls.load(std::memory_order_relaxed);
  s.would_block = counters_->would_block.load(std::memory_order_relaxed);
  s.io_ns = counters_->io_ns.load(std::memory_order_relaxed);
  s.recv_bytes = counters_->recv_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace perfbench
