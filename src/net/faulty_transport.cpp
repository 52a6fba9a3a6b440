#include "net/faulty_transport.hpp"

#include <string>

namespace spi::net {

/// Connection decorator applying the faults drawn for this connection.
class FaultyTransport::FaultyConnection final : public Connection {
 public:
  FaultyConnection(std::unique_ptr<Connection> inner,
                   ConnectionFaults faults, FaultyTransport* owner)
      : inner_(std::move(inner)), faults_(faults), owner_(owner) {}

  Status send(std::string_view bytes) override {
    if (severed_) {
      return Error(ErrorCode::kConnectionClosed, "injected sever");
    }
    if (faults_.first_send_delay > Duration::zero() && sent_ == 0 &&
        !delayed_) {
      delayed_ = true;
      owner_->delays_.fetch_add(1, std::memory_order_relaxed);
      owner_->clock_->sleep_for(faults_.first_send_delay);
    }

    std::string mutated;
    std::string_view to_send = bytes;
    if (faults_.corrupt_at != FaultPlan::npos && faults_.corrupt_at >= sent_ &&
        faults_.corrupt_at < sent_ + bytes.size()) {
      mutated = std::string(bytes);
      mutated[faults_.corrupt_at - sent_] ^= 0x01;
      to_send = mutated;
      owner_->corruptions_.fetch_add(1, std::memory_order_relaxed);
    }

    if (faults_.sever_at != 0 && sent_ + to_send.size() > faults_.sever_at) {
      size_t allowed =
          faults_.sever_at > sent_ ? faults_.sever_at - sent_ : 0;
      if (allowed > 0) {
        (void)inner_->send(to_send.substr(0, allowed));
        sent_ += allowed;
      }
      severed_ = true;
      owner_->severs_.fetch_add(1, std::memory_order_relaxed);
      inner_->close();
      return Error(ErrorCode::kConnectionClosed, "injected sever");
    }

    Status status = inner_->send(to_send);
    if (status.ok()) sent_ += to_send.size();
    return status;
  }

  Result<std::string> receive(size_t max_bytes) override {
    return inner_->receive(max_bytes);
  }

  void close() override { inner_->close(); }
  void abort() override { inner_->abort(); }

  Status set_receive_timeout(Duration timeout) override {
    return inner_->set_receive_timeout(timeout);
  }

  // --- non-blocking passthrough -----------------------------------------
  // Same sever/corrupt schedule applied to the readiness-driven path so
  // the async client can run under chaos. Injected first-send DELAYS are
  // not applied here: try_send runs on a reactor loop thread and must
  // never sleep. try_sendv is not overridden: the default sends one
  // segment per call through try_send, where byte-offset accounting lives.

  int native_handle() const override { return inner_->native_handle(); }

  Status set_nonblocking(bool enabled) override {
    return inner_->set_nonblocking(enabled);
  }

  Status finish_connect() override { return inner_->finish_connect(); }

  Result<std::string> try_receive(size_t max_bytes) override {
    return inner_->try_receive(max_bytes);
  }
  Result<size_t> try_receive_into(char* into, size_t max_bytes) override {
    return inner_->try_receive_into(into, max_bytes);
  }

  Result<size_t> try_send(std::string_view bytes) override {
    if (severed_) {
      return Error(ErrorCode::kConnectionClosed, "injected sever");
    }

    std::string mutated;
    std::string_view to_send = bytes;
    bool corrupts = faults_.corrupt_at != FaultPlan::npos &&
                    faults_.corrupt_at >= sent_ &&
                    faults_.corrupt_at < sent_ + bytes.size();
    if (corrupts) {
      mutated = std::string(bytes);
      mutated[faults_.corrupt_at - sent_] ^= 0x01;
      to_send = mutated;
    }

    if (faults_.sever_at != 0 && sent_ + to_send.size() > faults_.sever_at) {
      size_t allowed =
          faults_.sever_at > sent_ ? faults_.sever_at - sent_ : 0;
      if (allowed > 0) {
        auto n = inner_->try_send(to_send.substr(0, allowed));
        if (!n.ok()) return n;  // kWouldBlock: retry later, not severed yet
        // Same "flipped byte actually left" accounting as the normal
        // path: the corrupted offset may sit inside the prefix the sever
        // still lets through.
        if (corrupts && sent_ + n.value() > faults_.corrupt_at) {
          owner_->corruptions_.fetch_add(1, std::memory_order_relaxed);
        }
        sent_ += n.value();
        if (sent_ < faults_.sever_at) return n;  // short write, not there yet
      }
      severed_ = true;
      owner_->severs_.fetch_add(1, std::memory_order_relaxed);
      inner_->close();
      if (allowed > 0) return allowed;  // partial bytes made it out
      return Error(ErrorCode::kConnectionClosed, "injected sever");
    }

    auto n = inner_->try_send(to_send);
    if (n.ok()) {
      // Only count the corruption once the flipped byte actually left.
      if (corrupts && sent_ + n.value() > faults_.corrupt_at) {
        owner_->corruptions_.fetch_add(1, std::memory_order_relaxed);
      }
      sent_ += n.value();
    }
    return n;
  }

 private:
  std::unique_ptr<Connection> inner_;
  ConnectionFaults faults_;
  FaultyTransport* owner_;
  size_t sent_ = 0;
  bool severed_ = false;
  bool delayed_ = false;
};

FaultyTransport::FaultyTransport(Transport& inner, FaultPlan plan,
                                 Clock& clock)
    : inner_(inner), plan_(plan), clock_(&clock), rng_(plan.seed) {}

Result<std::unique_ptr<Listener>> FaultyTransport::listen(
    const Endpoint& at) {
  return inner_.listen(at);  // faults are injected on the decorated side
}

bool FaultyTransport::draw_refusal() {
  if (refused_.load(std::memory_order_relaxed) < plan_.refuse_connects) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (plan_.refuse_rate > 0) {
    std::lock_guard lock(rng_mutex_);
    if (rng_.next_double() < plan_.refuse_rate) return true;
  }
  return false;
}

FaultyTransport::ConnectionFaults FaultyTransport::draw_connection_faults() {
  ConnectionFaults faults;
  faults.sever_at = plan_.sever_after_bytes;
  faults.corrupt_at = plan_.corrupt_at;
  if (!plan_.chaotic()) return faults;

  std::lock_guard lock(rng_mutex_);
  size_t window = plan_.fault_window_bytes > 0 ? plan_.fault_window_bytes : 1;
  if (faults.sever_at == 0 && plan_.sever_rate > 0 &&
      rng_.next_double() < plan_.sever_rate) {
    faults.sever_at = 1 + rng_.next_below(window);
  }
  if (faults.corrupt_at == FaultPlan::npos && plan_.corrupt_rate > 0 &&
      rng_.next_double() < plan_.corrupt_rate) {
    faults.corrupt_at = rng_.next_below(window);
  }
  if (plan_.delay_rate > 0 && rng_.next_double() < plan_.delay_rate) {
    faults.first_send_delay = plan_.delay;
  }
  return faults;
}

Result<std::unique_ptr<Connection>> FaultyTransport::connect(
    const Endpoint& to) {
  connects_.fetch_add(1, std::memory_order_relaxed);
  if (draw_refusal()) {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    return Error(ErrorCode::kConnectionFailed, "injected connect failure");
  }
  auto connection = inner_.connect(to);
  if (!connection.ok()) return connection.error();
  return std::unique_ptr<Connection>(std::make_unique<FaultyConnection>(
      std::move(connection).value(), draw_connection_faults(), this));
}

Result<AsyncConnect> FaultyTransport::connect_nonblocking(
    const Endpoint& to) {
  connects_.fetch_add(1, std::memory_order_relaxed);
  if (draw_refusal()) {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    return Error(ErrorCode::kConnectionFailed, "injected connect failure");
  }
  auto dial = inner_.connect_nonblocking(to);
  if (!dial.ok()) return dial.error();
  AsyncConnect out;
  out.pending = dial.value().pending;
  out.connection = std::make_unique<FaultyConnection>(
      std::move(dial.value().connection), draw_connection_faults(), this);
  return out;
}

FaultStats FaultyTransport::fault_stats() const {
  FaultStats s;
  s.connects = connects_.load(std::memory_order_relaxed);
  s.refusals = refusals_.load(std::memory_order_relaxed);
  s.severs = severs_.load(std::memory_order_relaxed);
  s.corruptions = corruptions_.load(std::memory_order_relaxed);
  s.delays = delays_.load(std::memory_order_relaxed);
  return s;
}

void FaultyTransport::bind_metrics(telemetry::MetricsRegistry& registry) {
  struct View {
    const char* label;
    const std::atomic<std::uint64_t>* counter;
  };
  const View views[] = {
      {"kind=\"refusal\"", &refusals_},
      {"kind=\"sever\"", &severs_},
      {"kind=\"corruption\"", &corruptions_},
      {"kind=\"delay\"", &delays_},
  };
  for (const View& view : views) {
    registry.add_callback("spi_fault_injected_total",
                          "Faults injected by the FaultyTransport decorator",
                          telemetry::CallbackKind::kCounter, view.label,
                          [counter = view.counter]() -> double {
                            return static_cast<double>(
                                counter->load(std::memory_order_relaxed));
                          });
  }
}

}  // namespace spi::net
