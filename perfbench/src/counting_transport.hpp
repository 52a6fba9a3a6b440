// Counting/timing net::Transport wrapper for the traced benchmark run.
//
// Every connection and listener it hands out forwards each virtual of the
// wrapped object — including the non-blocking surface (native_handle,
// set_nonblocking, try_*, finish_connect, supports_sendv) and the
// transport's supports_nonblocking_connect/supports_reuse_port. A wrapper
// that dropped one of those would silently move the server and the async
// client onto their blocking drivers, and the traced run would measure a
// different program (tests/selftest.cpp checks the forwarding).
//
// Counted per call into the transport layer: sends (send, try_send,
// try_sendv), receives (receive, try_receive), try_* calls that came back
// kWouldBlock, bytes received, and wall time spent inside all of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/transport.hpp"

namespace perfbench {

struct IoCounters {
  std::atomic<std::uint64_t> send_calls{0};
  std::atomic<std::uint64_t> recv_calls{0};
  std::atomic<std::uint64_t> try_calls{0};   // try_send/try_sendv/try_receive
  std::atomic<std::uint64_t> would_block{0}; // try_* calls answered kWouldBlock
  std::atomic<std::uint64_t> io_ns{0};       // wall time inside I/O calls
  std::atomic<std::uint64_t> recv_bytes{0};  // bytes returned by receives
};

/// Plain copy of IoCounters, for deltas across a measured phase.
struct IoSnapshot {
  std::uint64_t send_calls = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t try_calls = 0;
  std::uint64_t would_block = 0;
  std::uint64_t io_ns = 0;
  std::uint64_t recv_bytes = 0;

  IoSnapshot operator-(const IoSnapshot& earlier) const;
};

class CountingTransport final : public spi::net::Transport {
 public:
  /// `inner` is borrowed and must outlive this wrapper and every
  /// connection or listener obtained through it.
  explicit CountingTransport(spi::net::Transport& inner);

  spi::Result<std::unique_ptr<spi::net::Listener>> listen(
      const spi::net::Endpoint& at) override;
  spi::Result<std::unique_ptr<spi::net::Listener>> listen(
      const spi::net::Endpoint& at,
      const spi::net::ListenOptions& options) override;
  bool supports_reuse_port() const override;

  spi::Result<std::unique_ptr<spi::net::Connection>> connect(
      const spi::net::Endpoint& to) override;
  bool supports_nonblocking_connect() const override;
  spi::Result<spi::net::AsyncConnect> connect_nonblocking(
      const spi::net::Endpoint& to) override;

  spi::net::WireStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

  IoSnapshot io() const;

 private:
  spi::net::Transport& inner_;
  std::shared_ptr<IoCounters> counters_;
};

}  // namespace perfbench
