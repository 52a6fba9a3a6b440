// HTTP/1.1 server over a Transport, with two connection drivers sharing
// one per-connection state machine (http/connection_fsm.hpp):
//
//   * Reactor driver (default for fd-backed transports): N event loops
//     (concurrency/reactor.hpp) drive every connection non-blocking via
//     readiness events; timeouts live on each loop's timer wheel; handlers
//     run on the protocol pool and post their responses back to the loop.
//     Thousands of idle keep-alive connections cost zero threads.
//
//   * Blocking driver (SimTransport, FaultyTransport, reactor_threads=0):
//     the classic one-pooled-task-per-connection loop — the paper's
//     Figure 1 "common architecture" — with timeouts on a shared
//     TimerService wheel instead of per-receive deadlines.
//
// The SPI server (core/server.hpp) plugs a handler into this layer that
// dispatches to an independent application stage (Figure 2); that SEDA
// handoff is unchanged by the driver choice.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"
#include "common/timeout.hpp"
#include "concurrency/reactor.hpp"
#include "concurrency/thread_pool.hpp"
#include "concurrency/timer_wheel.hpp"
#include "http/connection_fsm.hpp"
#include "http/message.hpp"
#include "http/outbox.hpp"
#include "http/parser.hpp"
#include "net/transport.hpp"

namespace spi::http {

struct ServerOptions {
  /// Protocol-stage pool size. Blocking driver: concurrent connections
  /// being served. Reactor driver: concurrent handler executions (the
  /// loops themselves never block on a handler).
  size_t protocol_threads = 8;
  ParserLimits limits;

  /// Reactor event loops driving fd-backed connections. 0 forces the
  /// blocking thread-per-connection driver even for pollable transports;
  /// transports without pollable fds (SimTransport) always use the
  /// blocking driver regardless.
  size_t reactor_threads = 1;

  /// Per-core accept sharding (DESIGN.md §13): with >1 reactor loop and a
  /// transport that supports SO_REUSEPORT, every loop gets its own
  /// listener and accepts locally — no loop-0 accept hop, no cross-loop
  /// connection handoff. false (or no kernel support) falls back to one
  /// listener on loop 0 with round-robin handoff.
  bool accept_sharding = true;

  /// Accepts drained per readiness wake of a listener. Bounding the burst
  /// keeps a connect flood from starving established connections that
  /// share the loop; the level-triggered poller re-reports the listener
  /// until its backlog is dry, so no accept is lost.
  size_t accept_batch_per_wake = 64;

  /// Telemetry span for the HTTP-read lifecycle point (unowned; must
  /// outlive the server): wall time from the first received byte of a
  /// request until its framing parses complete. Null = off.
  spi::LatencyHistogram* read_latency = nullptr;

  /// Slowloris defense (DESIGN.md §11): once any byte of a request has
  /// arrived, the full message must finish parsing within this budget or
  /// the connection is answered 408 and closed — a peer dribbling one
  /// header byte per second cannot park a protocol thread indefinitely.
  /// kNoTimeout disables.
  Duration header_read_timeout = std::chrono::seconds(30);

  /// Keep-alive connections with no request in progress are closed after
  /// this long (silently: between messages there is nothing to answer).
  /// kNoTimeout disables.
  Duration idle_timeout = std::chrono::minutes(2);

  /// Cap on concurrently open connections. At the cap, new arrivals get a
  /// minimal 503 + "Connection: close" at accept time and never occupy a
  /// connection slot. 0 = unlimited.
  size_t max_connections = 0;
};

class HttpServer {
 public:
  /// The handler may block (the SPI server blocks it on the application
  /// stage's completion, which is the paper's "sleeping protocol thread"
  /// behaviour). It runs on a protocol-pool thread under both drivers —
  /// never on a reactor loop. The request is handed over as an rvalue, so
  /// a handler may move its body into a parse instead of copying it; a
  /// handler written against `const Request&` binds just the same.
  using Handler = std::function<Response(Request&&)>;

  HttpServer(net::Transport& transport, net::Endpoint at, Handler handler,
             ServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts accepting. Fails if the endpoint is taken.
  Status start();

  /// Stops accepting, closes the listener, and tears down all
  /// connections, loops, and pools. Idempotent.
  void stop();

  /// First half of a graceful drain: stops admission (closing the
  /// listener) while requests already in flight keep running and
  /// keep-alive peers get "Connection: close" on their next response.
  /// Poll active_requests() until it reaches zero (or a drain deadline
  /// passes), then call stop(). Idempotent; exactly one caller joins the
  /// acceptor, so a later stop() never double-joins.
  void stop_accepting();

  /// Requests currently between "framing parsed" and "response sent" —
  /// the precise in-flight count a drain waits on (idle keep-alive
  /// connections do not inflate it).
  size_t active_requests() const {
    return active_requests_.load(std::memory_order_acquire);
  }

  /// Actual bound endpoint (valid after start()).
  net::Endpoint endpoint() const { return endpoint_; }

  /// Number of HTTP requests served (across all connections).
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Connections currently open (accepted and not yet closed).
  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

  /// Connections turned away at the max_connections cap (503 at accept).
  std::uint64_t connections_rejected() const {
    return connections_rejected_.load(std::memory_order_relaxed);
  }

  /// Requests answered 408 because the header_read_timeout expired mid-
  /// message (slowloris sheds).
  std::uint64_t read_timeouts() const {
    return read_timeouts_.load(std::memory_order_relaxed);
  }

  /// The protocol-stage pool, for telemetry views (queue depth, active
  /// workers). Null before start() and after stop().
  const ThreadPool* protocol_pool() const { return connection_pool_.get(); }

  // --- reactor telemetry (spi_reactor_* gauges) ------------------------

  /// Per-loop counters proving the accept sharding is balanced and the
  /// vectored send path is in use (spi_reactor_loop_* series).
  struct LoopSnapshot {
    size_t connections = 0;           ///< currently attached to this loop
    std::uint64_t accepts = 0;        ///< connections accepted by this loop
    std::uint64_t bytes_written = 0;  ///< response bytes to the wire
    std::uint64_t sendv_batches = 0;  ///< try_sendv calls that wrote bytes
    std::uint64_t sendv_segments = 0; ///< segments fully retired via sendv
  };

  /// True when connections are served by reactor event loops (decided at
  /// start() from reactor_threads and the transport's poll support).
  bool reactor_mode() const { return reactor_mode_; }

  /// True when every reactor loop owns a SO_REUSEPORT listener (decided at
  /// start(); false on single-loop servers and non-reuseport transports).
  bool accept_sharded() const { return accept_sharded_; }

  /// Number of per-loop stat slots (== reactor_threads, fixed at
  /// construction so telemetry can register label series up front).
  size_t loop_count() const { return loop_stats_.size(); }
  LoopSnapshot loop_snapshot(size_t loop_index) const;

  /// Totals across loops: vectored gather calls and segments that reached
  /// the wire without a coalescing copy (spi_sendv_*_total).
  std::uint64_t sendv_batches() const;
  std::uint64_t sendv_segments() const;

  /// Loop iterations summed across reactors (0 in blocking mode).
  std::uint64_t reactor_loop_iterations() const;

  /// Connections currently attached to reactor loops (0 in blocking mode).
  size_t reactor_connections() const;

  /// Pending timers across every wheel (reactor wheels or the blocking
  /// driver's TimerService).
  size_t timer_wheel_depth() const;

 private:
  class ReactorConn;
  class BlockingConn;
  friend class ReactorConn;
  friend class BlockingConn;

  /// One reactor loop's live counters (atomics: scraped from any thread,
  /// written from the owning loop).
  struct LoopStats {
    std::atomic<size_t> connections{0};
    std::atomic<std::uint64_t> accepts{0};
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> sendv_batches{0};
    std::atomic<std::uint64_t> sendv_segments{0};
  };

  void accept_loop();
  /// Drains pending accepts on listeners_[listener_index] (its owning
  /// loop's thread), bounded by accept_batch_per_wake.
  void on_acceptable(size_t listener_index);
  void attach_reactor_connection(std::unique_ptr<net::Connection> connection,
                                 size_t loop_index, bool on_loop_thread);
  void detach_reactor_connection(ReactorConn* connection);
  /// 503 + Connection: close at the max_connections cap; returns true if
  /// the arrival was rejected.
  bool reject_if_at_capacity(net::Connection& connection);

  ConnectionFsm::Config fsm_config() const;
  ConnectionFsm::Counters fsm_counters();

  net::Transport& transport_;
  net::Endpoint requested_endpoint_;
  net::Endpoint endpoint_;
  Handler handler_;
  ServerOptions options_;

  /// listeners_[0] always exists after start(); with accept sharding,
  /// listeners_[i] is loop i's SO_REUSEPORT listener.
  std::vector<std::unique_ptr<net::Listener>> listeners_;
  std::unique_ptr<ThreadPool> connection_pool_;
  bool reactor_mode_ = false;
  bool accept_sharded_ = false;

  // Reactor driver state.
  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// listener_tokens_[i] is listeners_[i]'s registration on its reactor
  /// (sharded: reactor i; fallback: the single token lives on reactor 0).
  std::vector<std::uint64_t> listener_tokens_;
  /// Sized to reactor_threads at construction and never resized, so
  /// telemetry label series can bind before start().
  std::vector<std::unique_ptr<LoopStats>> loop_stats_;
  std::atomic<size_t> next_reactor_{0};
  mutable std::mutex reactor_conns_mutex_;
  std::unordered_map<ReactorConn*, std::shared_ptr<ReactorConn>>
      reactor_conns_;

  // Blocking driver state.
  std::jthread acceptor_;
  std::unique_ptr<TimerService> timer_service_;
  /// Connections currently being served; stop() aborts them so protocol
  /// threads blocked in receive() on idle keep-alive connections wake up.
  std::mutex live_mutex_;
  std::set<net::Connection*> live_connections_;

  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<size_t> active_requests_{0};
  std::atomic<size_t> open_connections_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
};

}  // namespace spi::http
