#include "http/async_client.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "http/outbox.hpp"

namespace spi::http {

/// All mutable state lives here and is touched ONLY on the reactor loop
/// thread (public entry points marshal via Reactor::post / run_sync).
/// That single-threaded discipline is what lets exchanges, connections,
/// and timers interleave without a single lock.
struct AsyncHttpClient::Impl : std::enable_shared_from_this<Impl> {
  struct Conn;

  /// One request/response exchange, from send() to completion. Owned by
  /// the endpoint queue while waiting for capacity, then by the
  /// connection's in-flight deque until its response slot is consumed.
  struct Exchange {
    RequestId id = kInvalidRequest;
    net::Endpoint endpoint;
    /// Request::take_wire_pieces(): the head, then the body's framing and
    /// splices (the caller's Values), moved in, never copied.
    std::vector<SharedBytes> segments;
    /// How many outbox segments the exchange queues (none is empty).
    size_t segment_count = 0;
    Callback done;
    TimerWheel::TimerId deadline = TimerWheel::kInvalidTimer;
    Conn* conn = nullptr;   // null while queued
    bool finished = false;  // caller has been answered
    bool abandoned = false; // finished but still holding a response slot
  };

  /// One pooled connection's FSM: kConnecting (write interest, then
  /// finish_connect) -> established (read interest; write interest only
  /// while the outbox has bytes). `inflight` is the pipeline: exchanges
  /// in write order, which HTTP/1.1 guarantees is response order.
  struct Conn {
    net::Endpoint endpoint;
    std::unique_ptr<net::Connection> connection;
    std::uint64_t token = 0;
    bool connecting = false;
    bool dead = false;
    TimerWheel::TimerId connect_timer = TimerWheel::kInvalidTimer;
    TimerWheel::TimerId drain_timer = TimerWheel::kInvalidTimer;
    MessageParser parser;
    std::deque<std::unique_ptr<Exchange>> inflight;
    /// Outbound bytes not yet accepted by the kernel: each exchange's
    /// segments in order. A segment's owner lives until it is written.
    Outbox outbox;
    std::uint64_t served = 0;

    Conn(net::Endpoint ep, ParserLimits limits)
        : endpoint(std::move(ep)),
          parser(MessageParser::Mode::kResponse, limits) {}
  };

  struct EndpointState {
    std::deque<std::unique_ptr<Exchange>> queue;
    std::vector<std::unique_ptr<Conn>> conns;
  };

  Impl(Reactor& reactor, net::Transport& transport, AsyncClientOptions opts)
      : reactor(reactor), transport(transport), options(std::move(opts)) {}

  Reactor& reactor;
  net::Transport& transport;
  AsyncClientOptions options;

  // Loop-thread-only.
  std::map<net::Endpoint, EndpointState> endpoints;
  std::unordered_map<RequestId, Exchange*> live;
  /// Destroyed connections parked until the call stack unwinds: frames
  /// above destroy_conn() may still hold the Conn* (they re-check `dead`),
  /// so the memory is swept by a posted task, not freed in place.
  std::vector<std::unique_ptr<Conn>> graveyard;
  bool shutting_down = false;

  // Read from any thread.
  std::atomic<RequestId> next_id{1};
  std::atomic<size_t> inflight_count{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> connects_started{0};
  std::atomic<std::uint64_t> connect_failures{0};
  std::atomic<std::uint64_t> reused{0};
  std::atomic<std::uint64_t> pipelined{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> drained{0};

  // --- completion --------------------------------------------------------

  /// Answers the caller exactly once and releases bookkeeping. The
  /// exchange object itself stays wherever it is owned (queue or
  /// pipeline) until its slot is consumed.
  void finish(Exchange* ex, Result<Response> result) {
    if (ex->finished) return;
    ex->finished = true;
    if (ex->deadline != TimerWheel::kInvalidTimer) {
      reactor.cancel_timer(ex->deadline);
      ex->deadline = TimerWheel::kInvalidTimer;
    }
    live.erase(ex->id);
    inflight_count.fetch_sub(1, std::memory_order_relaxed);
    if (ex->done) {
      Callback done = std::move(ex->done);
      done(std::move(result));
    }
  }

  /// Finishes an exchange that can no longer win (deadline fired or
  /// caller cancelled) without tearing down its connection: in-flight
  /// exchanges keep their response slot so the pipeline's in-order
  /// matching stays intact, and the stale response is drained later.
  void abandon(RequestId id, Error error) {
    auto it = live.find(id);
    if (it == live.end()) return;  // already completed: no-op
    Exchange* ex = it->second;
    if (ex->conn == nullptr) {
      // Still queued: remove and destroy outright.
      auto& st = endpoints[ex->endpoint];
      auto queued = std::find_if(
          st.queue.begin(), st.queue.end(),
          [ex](const std::unique_ptr<Exchange>& e) { return e.get() == ex; });
      finish(ex, std::move(error));
      if (queued != st.queue.end()) st.queue.erase(queued);
      return;
    }
    Conn* conn = ex->conn;
    finish(ex, std::move(error));
    // If the request's bytes have not left the process at all (still
    // dialing, or the socket back-pressured) and nothing is pipelined
    // behind it, prune it from the wire outright: a cancelled
    // non-idempotent call must not execute server-side, and the
    // connection then has no stale response to drain. The unwritten
    // outbox segments map onto the pipeline TAIL, so this is exactly the
    // case "ex is inflight.back() and its segments are the last
    // ex->segment_count outbox segments, with no byte of the first one
    // consumed".
    const size_t segments = conn->outbox.segments();
    const size_t own = ex->segment_count;
    bool tail = !conn->inflight.empty() && conn->inflight.back().get() == ex;
    bool unwritten = segments >= own &&
                     (segments > own || conn->outbox.front_untouched());
    if (tail && unwritten) {
      // Dropping the segments lets their owners go: the framing back to
      // the buffer pool, the caller's Values to the caller.
      conn->outbox.drop_back(own);
      conn->inflight.pop_back();
      if (!conn->connecting) update_interest(conn);
      maybe_arm_drain(conn);
      auto ep_it = endpoints.find(conn->endpoint);
      if (ep_it != endpoints.end() && !ep_it->second.queue.empty()) {
        pump(ep_it->second, conn->endpoint);  // a pipeline slot freed up
      }
      return;
    }
    ex->abandoned = true;
    maybe_arm_drain(conn);
  }

  // --- connection lifecycle ----------------------------------------------

  /// Tears a connection down: deregisters the fd, fails every still-live
  /// in-flight exchange with `error`, erases it from the pool, and pumps
  /// the queue so waiting exchanges redial.
  void destroy_conn(Conn* conn, const Error& error) {
    if (conn->dead) return;
    conn->dead = true;
    if (conn->connect_timer != TimerWheel::kInvalidTimer) {
      reactor.cancel_timer(conn->connect_timer);
      conn->connect_timer = TimerWheel::kInvalidTimer;
    }
    if (conn->drain_timer != TimerWheel::kInvalidTimer) {
      reactor.cancel_timer(conn->drain_timer);
      conn->drain_timer = TimerWheel::kInvalidTimer;
    }
    std::deque<std::unique_ptr<Exchange>> inflight = std::move(conn->inflight);
    if (conn->token != 0) reactor.remove_fd(conn->token);
    net::Endpoint endpoint = conn->endpoint;
    auto ep_it = endpoints.find(endpoint);
    if (ep_it != endpoints.end()) {
      auto& conns = ep_it->second.conns;
      auto slot = std::find_if(
          conns.begin(), conns.end(),
          [conn](const std::unique_ptr<Conn>& c) { return c.get() == conn; });
      if (slot != conns.end()) {
        // Park, don't free: callers up-stack re-check conn->dead. The
        // sweep (and with it the fd close) runs once the stack unwinds.
        graveyard.push_back(std::move(*slot));
        conns.erase(slot);
        reactor.post(
            [self = shared_from_this()] { self->graveyard.clear(); });
      }
    }
    for (auto& ex : inflight) finish(ex.get(), error);
    if (!shutting_down && ep_it != endpoints.end()) {
      pump(ep_it->second, endpoint);
    }
  }

  /// Dials one more connection for `endpoint`. On a synchronous dial
  /// failure the FRONT queued exchange is failed with the error (each
  /// queued exchange gets at most one dial attempt — no redial storm)
  /// and nullptr is returned.
  Conn* open_conn(EndpointState& st, const net::Endpoint& endpoint) {
    connects_started.fetch_add(1, std::memory_order_relaxed);
    auto fail_front = [&](Error error) {
      connect_failures.fetch_add(1, std::memory_order_relaxed);
      if (!st.queue.empty()) {
        auto ex = std::move(st.queue.front());
        st.queue.pop_front();
        finish(ex.get(), std::move(error));
      }
    };

    auto dial = transport.connect_nonblocking(endpoint);
    if (!dial.ok()) {
      fail_front(dial.error().wrap("async connect"));
      return nullptr;
    }
    auto conn = std::make_unique<Conn>(endpoint, options.limits);
    conn->connection = std::move(dial.value().connection);
    conn->connecting = dial.value().pending;
    int fd = conn->connection->native_handle();
    if (fd < 0) {
      fail_front(Error(ErrorCode::kInvalidArgument,
                       "async client requires an fd-backed transport"));
      return nullptr;
    }
    if (Status nb = conn->connection->set_nonblocking(true); !nb.ok()) {
      fail_front(nb.error().wrap("set_nonblocking"));
      return nullptr;
    }

    Conn* raw = conn.get();
    std::uint32_t interest = conn->connecting
                                 ? net::Readiness::kWrite
                                 : net::Readiness::kRead;
    conn->token = reactor.add_fd(
        fd, interest, [this, raw](std::uint32_t events) { on_io(raw, events); });
    if (conn->connecting && !is_unbounded(options.connect_timeout)) {
      conn->connect_timer =
          reactor.schedule(options.connect_timeout, [this, raw] {
            raw->connect_timer = TimerWheel::kInvalidTimer;
            connect_failures.fetch_add(1, std::memory_order_relaxed);
            destroy_conn(raw, Error(ErrorCode::kTimeout,
                                    "connect timed out (dial pending)"));
          });
    }
    st.conns.push_back(std::move(conn));
    return raw;
  }

  // --- scheduling --------------------------------------------------------

  /// Matches queued exchanges to connection capacity: least-loaded
  /// connection first, dial a new one while under the per-endpoint cap,
  /// leave the rest queued.
  void pump(EndpointState& st, const net::Endpoint& endpoint) {
    while (!st.queue.empty() && !shutting_down) {
      Conn* best = nullptr;
      for (auto& c : st.conns) {
        if (c->dead) continue;
        if (c->inflight.size() >= options.max_pipeline_depth) continue;
        if (!best || c->inflight.size() < best->inflight.size()) {
          best = c.get();
        }
      }
      if (best == nullptr) {
        if (st.conns.size() >=
            std::max<size_t>(options.max_connections_per_endpoint, 1)) {
          break;  // saturated: stays queued until a slot frees
        }
        best = open_conn(st, endpoint);
        if (best == nullptr) continue;  // dial failed; next queued exchange
      }
      // Pop BEFORE assigning: a synchronous write failure inside assign()
      // re-enters pump() via destroy_conn(), and the re-entrant pass must
      // not see (and re-assign) a moved-from front slot.
      std::unique_ptr<Exchange> ex = std::move(st.queue.front());
      st.queue.pop_front();
      assign(best, std::move(ex));
      if (best->dead) break;  // write error tore the connection down
    }
  }

  /// Hands an exchange to a connection: it joins the pipeline (response
  /// order = write order) and its head and body join the outbox.
  void assign(Conn* conn, std::unique_ptr<Exchange> ex) {
    ex->conn = conn;
    if (!conn->connecting) {
      if (conn->inflight.empty() && conn->served > 0) {
        reused.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!conn->inflight.empty()) {
      pipelined.fetch_add(1, std::memory_order_relaxed);
    }
    for (SharedBytes& segment : ex->segments) {
      conn->outbox.push(std::move(segment));
    }
    ex->segments.clear();
    conn->inflight.push_back(std::move(ex));
    // A live exchange behind stale ones must not be reaped by the drain
    // timer.
    if (conn->drain_timer != TimerWheel::kInvalidTimer) {
      reactor.cancel_timer(conn->drain_timer);
      conn->drain_timer = TimerWheel::kInvalidTimer;
    }
    if (!conn->connecting) flush_outbox(conn);
  }

  /// When every exchange a connection still carries has been abandoned,
  /// bound how long it may drain stale responses before teardown.
  void maybe_arm_drain(Conn* conn) {
    if (conn->dead || conn->inflight.empty()) return;
    if (conn->drain_timer != TimerWheel::kInvalidTimer) return;
    for (const auto& ex : conn->inflight) {
      if (!ex->abandoned) return;
    }
    if (is_unbounded(options.drain_timeout)) return;
    conn->drain_timer = reactor.schedule(options.drain_timeout, [this, conn] {
      conn->drain_timer = TimerWheel::kInvalidTimer;
      destroy_conn(conn, Error(ErrorCode::kTimeout,
                               "abandoned responses never drained"));
    });
  }

  // --- I/O ---------------------------------------------------------------

  void on_io(Conn* conn, std::uint32_t events) {
    if (conn->dead) return;
    if (conn->connecting) {
      // Writability (or an error event) means the EINPROGRESS dial
      // resolved; SO_ERROR says which way.
      Status status = conn->connection->finish_connect();
      if (!status.ok()) {
        connect_failures.fetch_add(1, std::memory_order_relaxed);
        destroy_conn(conn, status.error().wrap("async connect"));
        return;
      }
      conn->connecting = false;
      if (conn->connect_timer != TimerWheel::kInvalidTimer) {
        reactor.cancel_timer(conn->connect_timer);
        conn->connect_timer = TimerWheel::kInvalidTimer;
      }
      maybe_arm_drain(conn);
      flush_outbox(conn);
      return;
    }
    if (events & (net::Readiness::kRead | net::Readiness::kError)) {
      if (!read_ready(conn)) return;  // connection destroyed
    }
    if (events & net::Readiness::kWrite) flush_outbox(conn);
  }

  /// Drains the outbox into the socket; false when the connection died.
  bool flush_outbox(Conn* conn) {
    Outbox::Progress progress;
    if (Status sent = conn->outbox.flush(*conn->connection, progress);
        !sent.ok()) {
      destroy_conn(conn, sent.error().wrap("async send"));
      return false;
    }
    update_interest(conn);
    return true;
  }

  /// One receive: straight into the unwritten part of a response body
  /// once it has begun, else a chunk for the parser.
  Status receive_once(Conn* conn) {
    std::span<char> space = conn->parser.body_space();
    if (!space.empty()) {
      auto n = conn->connection->try_receive_into(space.data(), space.size());
      if (!n.ok()) return n.error();
      conn->parser.commit_body(n.value());
      return Status();
    }
    auto data = conn->connection->try_receive(net::kReceiveChunk);
    if (!data.ok()) return data.error();
    conn->parser.feed(data.value());
    return Status();
  }

  /// Reads everything available, matching responses to the pipeline
  /// front (in order); false when the connection died.
  bool read_ready(Conn* conn) {
    while (true) {
      Status received = receive_once(conn);
      if (!received.ok()) {
        if (received.error().code() == ErrorCode::kWouldBlock) break;
        Error error = received.error();
        if (error.code() == ErrorCode::kConnectionClosed &&
            conn->parser.mid_message()) {
          error = error.wrap("truncated response");
        }
        destroy_conn(conn, error);
        return false;
      }
      while (auto response = conn->parser.poll_response()) {
        if (conn->inflight.empty()) {
          destroy_conn(conn, Error(ErrorCode::kProtocolError,
                                   "response with no request in flight"));
          return false;
        }
        std::unique_ptr<Exchange> ex = std::move(conn->inflight.front());
        conn->inflight.pop_front();
        ++conn->served;
        bool keep = response->keep_alive();
        if (ex->abandoned) {
          // The hedge loser / expired attempt: its slot is consumed and
          // the connection is clean again.
          drained.fetch_add(1, std::memory_order_relaxed);
          if (conn->inflight.empty() &&
              conn->drain_timer != TimerWheel::kInvalidTimer) {
            reactor.cancel_timer(conn->drain_timer);
            conn->drain_timer = TimerWheel::kInvalidTimer;
          }
        } else {
          responses.fetch_add(1, std::memory_order_relaxed);
          finish(ex.get(), std::move(*response));
        }
        if (!keep) {
          destroy_conn(conn, Error(ErrorCode::kConnectionClosed,
                                   "server closed the connection"));
          return false;
        }
      }
      if (conn->parser.failed()) {
        destroy_conn(conn, conn->parser.error().wrap("async response"));
        return false;
      }
    }
    // Response slots freed: match queued exchanges to the new capacity.
    auto ep_it = endpoints.find(conn->endpoint);
    if (ep_it != endpoints.end() && !ep_it->second.queue.empty()) {
      pump(ep_it->second, conn->endpoint);
    }
    return true;
  }

  void update_interest(Conn* conn) {
    std::uint32_t desired = net::Readiness::kRead;
    if (!conn->outbox.empty()) desired |= net::Readiness::kWrite;
    reactor.set_interest(conn->token, desired);
  }

  // --- entry points (already marshaled onto the loop) --------------------

  void start_exchange(std::unique_ptr<Exchange> ex, Duration timeout) {
    if (shutting_down) {
      finish(ex.get(),
             Error(ErrorCode::kShutdown, "async client shutting down"));
      return;
    }
    Exchange* raw = ex.get();
    live[raw->id] = raw;
    if (!is_unbounded(timeout)) {
      RequestId id = raw->id;
      raw->deadline = reactor.schedule(timeout, [this, id] {
        timeouts.fetch_add(1, std::memory_order_relaxed);
        abandon(id, Error(ErrorCode::kTimeout,
                          "attempt deadline expired on the timer wheel"));
      });
    }
    auto& st = endpoints[raw->endpoint];
    st.queue.push_back(std::move(ex));
    pump(st, raw->endpoint);
  }

  void shutdown() {
    shutting_down = true;
    const Error bye(ErrorCode::kShutdown, "async client destroyed");
    for (auto& [endpoint, st] : endpoints) {
      for (auto& ex : st.queue) finish(ex.get(), bye);
      st.queue.clear();
      while (!st.conns.empty()) destroy_conn(st.conns.back().get(), bye);
    }
    endpoints.clear();
    graveyard.clear();  // top frame: nothing up-stack holds a Conn*
  }
};

AsyncHttpClient::AsyncHttpClient(Reactor& reactor, net::Transport& transport,
                                 AsyncClientOptions options)
    : reactor_(reactor),
      impl_(std::make_shared<Impl>(reactor, transport, std::move(options))) {}

AsyncHttpClient::~AsyncHttpClient() {
  reactor_.run_sync([impl = impl_.get()] { impl->shutdown(); });
}

AsyncHttpClient::RequestId AsyncHttpClient::send(const net::Endpoint& endpoint,
                                                 Request request,
                                                 Duration timeout,
                                                 Callback done) {
  if (!request.headers.contains("Host")) {
    request.headers.set("Host", impl_->options.host);
  }
  auto ex = std::make_unique<Impl::Exchange>();
  ex->id = impl_->next_id.fetch_add(1, std::memory_order_relaxed);
  ex->endpoint = endpoint;
  ex->segments = request.take_wire_pieces();
  ex->segment_count = ex->segments.size();
  ex->done = std::move(done);
  RequestId id = ex->id;
  impl_->requests.fetch_add(1, std::memory_order_relaxed);
  impl_->inflight_count.fetch_add(1, std::memory_order_relaxed);
  // Boxed: Reactor tasks must be copyable. If the reactor has already
  // stopped, the post would be silently dropped — the exchange would die
  // without its callback and inflight_count would stay incremented, so
  // send_future() callers would block forever. Complete inline instead:
  // every accepted send() observably terminates.
  auto box = std::make_shared<std::unique_ptr<Impl::Exchange>>(std::move(ex));
  bool queued = reactor_.try_post([impl = impl_, box, timeout] {
    if (*box) impl->start_exchange(std::move(*box), timeout);
  });
  if (!queued) {
    std::unique_ptr<Impl::Exchange> dropped = std::move(*box);
    impl_->inflight_count.fetch_sub(1, std::memory_order_relaxed);
    if (dropped->done) {
      Callback done = std::move(dropped->done);
      done(Error(ErrorCode::kShutdown,
                 "async client reactor stopped before send"));
    }
  }
  return id;
}

std::future<Result<Response>> AsyncHttpClient::send_future(
    const net::Endpoint& endpoint, Request request, Duration timeout) {
  auto promise = std::make_shared<std::promise<Result<Response>>>();
  auto future = promise->get_future();
  send(endpoint, std::move(request), timeout,
       [promise](Result<Response> result) {
         promise->set_value(std::move(result));
       });
  return future;
}

void AsyncHttpClient::cancel(RequestId id) {
  if (id == kInvalidRequest) return;
  reactor_.post([impl = impl_, id] {
    if (impl->live.count(id) == 0) return;
    impl->cancelled.fetch_add(1, std::memory_order_relaxed);
    impl->abandon(id, Error(ErrorCode::kCancelled, "request cancelled"));
  });
}

size_t AsyncHttpClient::inflight() const {
  return impl_->inflight_count.load(std::memory_order_relaxed);
}

AsyncHttpClient::Stats AsyncHttpClient::stats() const {
  Stats s;
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.responses = impl_->responses.load(std::memory_order_relaxed);
  s.connects_started = impl_->connects_started.load(std::memory_order_relaxed);
  s.connect_failures = impl_->connect_failures.load(std::memory_order_relaxed);
  s.reused = impl_->reused.load(std::memory_order_relaxed);
  s.pipelined = impl_->pipelined.load(std::memory_order_relaxed);
  s.timeouts = impl_->timeouts.load(std::memory_order_relaxed);
  s.cancelled = impl_->cancelled.load(std::memory_order_relaxed);
  s.drained = impl_->drained.load(std::memory_order_relaxed);
  return s;
}

size_t AsyncHttpClient::idle_connections(const net::Endpoint& endpoint) const {
  size_t idle = 0;
  reactor_.run_sync([this, &endpoint, &idle] {
    auto it = impl_->endpoints.find(endpoint);
    if (it == impl_->endpoints.end()) return;
    for (const auto& conn : it->second.conns) {
      if (!conn->dead && !conn->connecting && conn->inflight.empty()) ++idle;
    }
  });
  return idle;
}

void AsyncHttpClient::bind_metrics(telemetry::MetricsRegistry& registry) {
  Impl* impl = impl_.get();
  registry.add_callback("spi_async_client_inflight",
                        "Exchanges accepted and not yet completed",
                        telemetry::CallbackKind::kGauge, "",
                        [impl]() -> double {
                          return static_cast<double>(impl->inflight_count.load(
                              std::memory_order_relaxed));
                        });
  registry.add_callback("spi_async_client_requests_total",
                        "Exchanges accepted by the async HTTP client",
                        telemetry::CallbackKind::kCounter, "",
                        [impl]() -> double {
                          return static_cast<double>(
                              impl->requests.load(std::memory_order_relaxed));
                        });
  registry.add_callback("spi_async_client_timeouts_total",
                        "Attempt deadlines fired on the timer wheel",
                        telemetry::CallbackKind::kCounter, "",
                        [impl]() -> double {
                          return static_cast<double>(
                              impl->timeouts.load(std::memory_order_relaxed));
                        });
  registry.add_callback(
      "spi_async_client_drained_total",
      "Stale responses drained after cancel/expiry, connection kept",
      telemetry::CallbackKind::kCounter, "", [impl]() -> double {
        return static_cast<double>(
            impl->drained.load(std::memory_order_relaxed));
      });
}

}  // namespace spi::http
