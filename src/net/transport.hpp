// Transport abstraction: blocking byte-stream connections + listeners.
// Two implementations:
//   * SimTransport (sim_transport.hpp) — in-process, delays injected by the
//     SimLink model of the paper's 100 Mbit Ethernet testbed
//   * TcpTransport (tcp_transport.hpp) — real POSIX sockets (loopback
//     integration tests, examples)
// The HTTP layer and everything above it are transport-agnostic.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/timeout.hpp"
#include "net/endpoint.hpp"

namespace spi::net {

/// One segment of a vectored send: mirrors `struct iovec` without pulling
/// <sys/uio.h> into the interface. Segments are written to the wire in
/// order, as if concatenated.
struct ConstBuffer {
  const char* data = nullptr;
  size_t size = 0;
};

/// Options for Transport::listen. reuse_port asks for kernel-level accept
/// sharding (SO_REUSEPORT): several listeners bound to the same endpoint,
/// each with its own accept queue, so every reactor loop can accept
/// locally instead of funnelling through one listener.
struct ListenOptions {
  bool reuse_port = false;
};

/// The HTTP drivers' receive size, and the largest single try_receive()
/// that Connection::try_receive_into's default asks for.
inline constexpr size_t kReceiveChunk = 64 * 1024;

/// Wire counters. Benches read these to report message/byte reductions
/// (the mechanism behind the paper's Figures 5-7).
struct WireStats {
  std::uint64_t connections_opened = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Shared, thread-safe stats accumulator owned by a Transport.
class WireStatsCollector {
 public:
  void on_connect() { connections_.fetch_add(1, std::memory_order_relaxed); }
  void on_send(std::uint64_t n) {
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  }
  void on_receive(std::uint64_t n) {
    bytes_received_.fetch_add(n, std::memory_order_relaxed);
  }

  WireStats snapshot() const {
    WireStats s;
    s.connections_opened = connections_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    connections_.store(0, std::memory_order_relaxed);
    bytes_sent_.store(0, std::memory_order_relaxed);
    bytes_received_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
};

/// Result of Transport::connect_nonblocking. When `pending` is true the
/// connection handshake is still in flight (the kernel said EINPROGRESS):
/// the caller must wait for WRITABILITY on native_handle() and then call
/// Connection::finish_connect() to learn whether the dial succeeded.
struct AsyncConnect {
  std::unique_ptr<class Connection> connection;
  bool pending = false;
};

/// Bidirectional blocking byte stream.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Sends all bytes, blocking until the transport has accepted them
  /// (for SimTransport this includes the modeled transmission time).
  virtual Status send(std::string_view bytes) = 0;

  /// Receives at least 1 and at most max_bytes bytes, blocking until data
  /// is available. Error kConnectionClosed once the peer closes and all
  /// delivered data has been read; kTimeout if a receive timeout is set
  /// and expires first.
  virtual Result<std::string> receive(size_t max_bytes) = 0;

  /// Bounds how long receive() may block (kNoTimeout = forever, the
  /// default; common/timeout.hpp owns that convention). Guards callers
  /// against peers that accept a request and then hang.
  virtual Status set_receive_timeout(Duration timeout) = 0;

  /// Half-close: peer's receive() drains then reports kConnectionClosed.
  /// Idempotent.
  virtual void close() = 0;

  /// Hard teardown: tears down BOTH directions so a thread blocked in
  /// receive() on this connection wakes with kConnectionClosed. Servers
  /// use this to reclaim protocol threads parked on idle keep-alive
  /// connections at shutdown. Idempotent.
  virtual void abort() { close(); }

  // --- non-blocking extension (event-driven connection layer, §12) ------
  // fd-backed transports override these so a Reactor can drive thousands
  // of connections from one thread via readiness events. The defaults
  // mark a connection as not pollable; such connections (SimTransport,
  // FaultyTransport) are served by the blocking thread-per-connection
  // driver instead.

  /// Pollable OS handle for Poller registration; -1 when the connection
  /// is not fd-backed.
  virtual int native_handle() const { return -1; }

  /// Switches the connection between blocking and O_NONBLOCK I/O. Only
  /// meaningful when native_handle() >= 0.
  virtual Status set_nonblocking(bool enabled) {
    (void)enabled;
    return Error(ErrorCode::kInvalidArgument,
                 "transport does not support non-blocking I/O");
  }

  /// Non-blocking receive: up to max_bytes of whatever is buffered.
  /// kWouldBlock when nothing is available right now (re-arm read
  /// interest and return to the event loop); kConnectionClosed at EOF.
  virtual Result<std::string> try_receive(size_t max_bytes) {
    (void)max_bytes;
    return Error(ErrorCode::kInvalidArgument,
                 "transport does not support non-blocking I/O");
  }

  /// Non-blocking receive into the caller's memory: up to max_bytes of
  /// whatever is buffered are written to `into`, and the count returned.
  /// Errors as try_receive(). fd-backed transports make one recv() into
  /// `into`. The default forwards through try_receive() in chunks of at
  /// most kReceiveChunk and copies out, so a wrapper that overrides
  /// only try_receive() still receives correctly, through its override.
  virtual Result<size_t> try_receive_into(char* into, size_t max_bytes) {
    auto bytes = try_receive(std::min(max_bytes, kReceiveChunk));
    if (!bytes.ok()) return bytes.error();
    std::memcpy(into, bytes.value().data(), bytes.value().size());
    return bytes.value().size();
  }

  /// Non-blocking send: writes what fits into the outbound buffer and
  /// returns the byte count (possibly short). kWouldBlock when nothing
  /// could be accepted (arm write interest and retry on readiness).
  virtual Result<size_t> try_send(std::string_view bytes) {
    (void)bytes;
    return Error(ErrorCode::kInvalidArgument,
                 "transport does not support non-blocking I/O");
  }

  /// True when try_sendv() gathers natively (writev/sendmsg). Callers
  /// need not ask: try_sendv() works either way.
  virtual bool supports_sendv() const { return false; }

  /// Non-blocking vectored send: writes the segments in order as one
  /// gather and returns bytes accepted — possibly short, possibly ending
  /// mid-segment; the caller advances its segment cursor and retries.
  /// kWouldBlock when nothing could be accepted. The default sends the
  /// first segment through try_send(), so a connection that cannot gather
  /// (or a wrapper that injects its faults in try_send) still works, one
  /// segment per call.
  virtual Result<size_t> try_sendv(const ConstBuffer* segments,
                                   size_t count) {
    if (count == 0) return size_t{0};
    return try_send(std::string_view(segments[0].data, segments[0].size));
  }

  /// Completes a dial started by Transport::connect_nonblocking that came
  /// back pending. Call once the socket polls WRITABLE: Ok means the
  /// connection is established; an error means the dial failed (SO_ERROR)
  /// and the connection must be discarded. For connections that were never
  /// pending this is a no-op.
  virtual Status finish_connect() { return Status(); }
};

/// Blocking accept() source bound to an Endpoint.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound connection. Error kShutdown after close().
  virtual Result<std::unique_ptr<Connection>> accept() = 0;

  virtual void close() = 0;

  /// The actual bound endpoint (with the resolved port for port 0).
  virtual Endpoint endpoint() const = 0;

  /// Pollable listening handle; -1 when accept() cannot be poll-driven
  /// (the reactor then falls back to a blocking acceptor thread).
  virtual int native_handle() const { return -1; }

  /// Switches accept() between blocking and O_NONBLOCK. Only meaningful
  /// when native_handle() >= 0.
  virtual Status set_nonblocking(bool enabled) {
    (void)enabled;
    return Error(ErrorCode::kInvalidArgument,
                 "transport does not support non-blocking accept");
  }

  /// Non-blocking accept: kWouldBlock when no connection is pending,
  /// kShutdown after close(). Accepted connections start in blocking mode;
  /// the reactor flips them with set_nonblocking(true).
  virtual Result<std::unique_ptr<Connection>> try_accept() {
    return Error(ErrorCode::kInvalidArgument,
                 "transport does not support non-blocking accept");
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Listener>> listen(const Endpoint& at) = 0;

  /// listen() with options. Transports without SO_REUSEPORT support reject
  /// reuse_port requests, so callers fall back to one shared listener.
  virtual Result<std::unique_ptr<Listener>> listen(
      const Endpoint& at, const ListenOptions& options) {
    if (options.reuse_port) {
      return Error(ErrorCode::kInvalidArgument,
                   "transport does not support SO_REUSEPORT");
    }
    return listen(at);
  }

  /// True when listen() honors ListenOptions::reuse_port.
  virtual bool supports_reuse_port() const { return false; }

  virtual Result<std::unique_ptr<Connection>> connect(const Endpoint& to) = 0;

  /// True when connect_nonblocking() can return a pending, pollable dial
  /// (the connection FSM path the async client needs).
  virtual bool supports_nonblocking_connect() const { return false; }

  /// Starts a dial without blocking. When the result's `pending` flag is
  /// true, wait for writability on the connection's native_handle() and
  /// then call Connection::finish_connect(). The default falls back to the
  /// blocking connect() (pending=false) so non-fd transports keep working.
  virtual Result<AsyncConnect> connect_nonblocking(const Endpoint& to) {
    auto connection = connect(to);
    if (!connection.ok()) return connection.error();
    AsyncConnect out;
    out.connection = std::move(connection).value();
    out.pending = false;
    return out;
  }

  /// Aggregate wire counters for connections made through this transport.
  virtual WireStats stats() const = 0;
  virtual void reset_stats() = 0;
};

}  // namespace spi::net
