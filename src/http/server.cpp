#include "http/server.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <optional>

#include "common/logging.hpp"

namespace spi::http {

namespace {
TimePoint now() { return std::chrono::steady_clock::now(); }
}  // namespace

// --- ReactorConn --------------------------------------------------------
// One reactor-driven connection. Every member (FSM included) is touched
// only on the home reactor's loop thread; handler execution happens on the
// protocol pool and re-enters via reactor_.post(). Lifetime is a
// shared_ptr held by the server's connection map, the poller registration,
// any armed timer, and any in-flight handler task.
class HttpServer::ReactorConn final
    : public ConnectionFsm::Host,
      public std::enable_shared_from_this<HttpServer::ReactorConn> {
 public:
  ReactorConn(HttpServer& server, Reactor& reactor,
              HttpServer::LoopStats& loop_stats,
              std::unique_ptr<net::Connection> connection)
      : server_(server),
        reactor_(reactor),
        loop_stats_(loop_stats),
        connection_(std::move(connection)),
        fsm_(*this, server.fsm_config(), server.fsm_counters(),
             server.accepting_) {}

  /// Loop thread: flip to non-blocking, register with the poller, start
  /// the FSM (which arms the idle timer).
  void open() {
    (void)connection_->set_nonblocking(true);
    loop_stats_.connections.fetch_add(1, std::memory_order_relaxed);
    auto self = shared_from_this();
    token_ = reactor_.add_fd(
        connection_->native_handle(), net::Readiness::kRead,
        [self](std::uint32_t events) { self->handle_io(events); });
    interest_ = net::Readiness::kRead;
    fsm_.on_open(now());
    update_interest();
  }

  /// Any thread: tear the connection down on its loop (server stop).
  void request_shutdown() {
    auto self = shared_from_this();
    reactor_.post([self] {
      if (self->finished_) return;
      // abort() wakes nothing here (no thread is parked) but ensures the
      // peer sees the close even with response bytes still queued.
      self->connection_->abort();
      self->fsm_.on_peer_closed();
    });
  }

  // --- ConnectionFsm::Host (loop thread) -------------------------------

  void send_bytes(std::vector<SharedBytes> segments,
                  bool /*close_after*/) override {
    // Each segment (the response head, a run of the Assembler's framing,
    // or a spliced value that may share the request body) is queued as
    // is, its owner held until the segment is written.
    for (SharedBytes& segment : segments) {
      bytes_queued_ += segment.bytes.size();
      outbox_.push(std::move(segment));
    }
    // One response == one completion mark, even if its payload was empty.
    send_marks_.push_back(bytes_queued_);
    if (!flushing_) flush();
  }

  void dispatch(Request request) override {
    auto self = shared_from_this();
    bool accepted = server_.connection_pool_->submit(
        [self, request = std::move(request)]() mutable {
          Response response;
          bool failed = false;
          try {
            response = self->server_.handler_(std::move(request));
          } catch (const std::exception& e) {
            SPI_LOG(kError, "http.server") << "handler threw: " << e.what();
            response = Response::make(500, "Internal Server Error", e.what());
            failed = true;
          }
          self->reactor_.post(
              [self, response = std::move(response), failed]() mutable {
                if (self->finished_) return;
                self->fsm_.on_response(std::move(response), failed, now());
                self->update_interest();
              });
        });
    if (!accepted) {
      // Pool is shutting down; the request can never be answered.
      reactor_.post([self] {
        if (!self->finished_) self->fsm_.on_peer_closed();
      });
    }
  }

  void arm_timer(ConnectionFsm::TimerKind /*kind*/, Duration delay) override {
    cancel_timer();
    auto self = shared_from_this();
    timer_ = reactor_.schedule(delay, [self] {
      self->timer_ = TimerWheel::kInvalidTimer;
      if (self->finished_) return;
      self->fsm_.on_timer(now());
      self->update_interest();
    });
  }

  void cancel_timer() override {
    if (timer_ != TimerWheel::kInvalidTimer) {
      reactor_.cancel_timer(timer_);
      timer_ = TimerWheel::kInvalidTimer;
    }
  }

  void close_connection() override {
    connection_->close();
    finish();
  }

 private:
  void handle_io(std::uint32_t events) {
    if (finished_) return;
    if (events & net::Readiness::kWrite) flush();
    if (finished_) return;
    if ((events & net::Readiness::kRead) && fsm_.wants_read()) {
      while (fsm_.wants_read() && !finished_ && receive_once()) {
      }
    }
    if (finished_) return;
    if ((events & net::Readiness::kError) && !fsm_.closed()) {
      fsm_.on_receive_error();
    }
    if (!finished_) update_interest();
  }

  /// One receive: once a request body has begun, straight into its
  /// unwritten rest, else a chunk for the FSM to parse. False when the
  /// socket is drained or the connection ended.
  bool receive_once() {
    std::span<char> space = fsm_.body_space();
    if (!space.empty()) {
      auto received = connection_->try_receive_into(space.data(), space.size());
      if (!received.ok()) return on_receive_failed(received.error());
      fsm_.on_body_bytes(received.value(), now());
      return true;
    }
    auto bytes = connection_->try_receive(net::kReceiveChunk);
    if (!bytes.ok()) return on_receive_failed(bytes.error());
    fsm_.on_bytes(bytes.value(), now());
    return true;
  }

  bool on_receive_failed(const Error& error) {
    if (error.code() == ErrorCode::kWouldBlock) return false;
    if (error.code() == ErrorCode::kConnectionClosed) {
      fsm_.on_peer_closed();
    } else {
      SPI_LOG(kDebug, "http.server") << "receive failed: " << error.to_string();
      fsm_.on_receive_error();
    }
    return false;
  }

  /// Drains the outbox until empty or the socket buffer fills.
  /// Reentrancy-guarded: fire_completions() -> on_send_complete() may
  /// queue the next response (pipelining) through send_bytes() while we
  /// are inside the loop; the outer loop picks the new bytes up in its
  /// next pass instead of recursing.
  void flush() {
    if (flushing_ || finished_) return;
    flushing_ = true;
    while (!finished_) {
      Outbox::Progress progress;
      const Status written = outbox_.flush(*connection_, progress);
      bytes_written_ += progress.bytes;
      loop_stats_.bytes_written.fetch_add(progress.bytes,
                                          std::memory_order_relaxed);
      loop_stats_.sendv_batches.fetch_add(progress.writes,
                                          std::memory_order_relaxed);
      loop_stats_.sendv_segments.fetch_add(progress.retired,
                                           std::memory_order_relaxed);
      if (!written.ok()) fsm_.on_receive_error();
      const bool blocked = !outbox_.empty();
      // Completions fire outside the write pass: on_send_complete() can
      // close the connection or append a pipelined response.
      fire_completions();
      if (finished_ || !written.ok() || blocked || outbox_.empty()) break;
    }
    flushing_ = false;
    if (!finished_) update_interest();
  }

  /// Tells the FSM about every response whose last byte has reached the
  /// transport. Marks are cumulative byte positions, so multiple queued
  /// responses and zero-byte sends complete in order.
  void fire_completions() {
    while (!finished_ && !send_marks_.empty() &&
           bytes_written_ >= send_marks_.front()) {
      send_marks_.pop_front();
      fsm_.on_send_complete(now());
    }
  }

  void update_interest() {
    if (finished_) return;
    std::uint32_t want = 0;
    if (fsm_.wants_read()) want |= net::Readiness::kRead;
    if (!outbox_.empty()) want |= net::Readiness::kWrite;
    if (want != interest_) {
      reactor_.set_interest(token_, want);
      interest_ = want;
    }
  }

  /// Idempotent teardown: deregister, release the server's reference.
  void finish() {
    if (finished_) return;
    finished_ = true;
    cancel_timer();
    if (token_ != 0) {
      reactor_.remove_fd(token_);
      token_ = 0;
    }
    loop_stats_.connections.fetch_sub(1, std::memory_order_relaxed);
    server_.open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    server_.detach_reactor_connection(this);
  }

  HttpServer& server_;
  Reactor& reactor_;
  HttpServer::LoopStats& loop_stats_;
  std::unique_ptr<net::Connection> connection_;
  ConnectionFsm fsm_;
  std::uint64_t token_ = 0;
  std::uint32_t interest_ = 0;
  TimerWheel::TimerId timer_ = TimerWheel::kInvalidTimer;
  Outbox outbox_;
  /// Cumulative queued/written byte positions; a send_bytes() call
  /// completes when bytes_written_ crosses its mark.
  std::uint64_t bytes_queued_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::deque<std::uint64_t> send_marks_;
  bool flushing_ = false;
  bool finished_ = false;
};

// --- BlockingConn -------------------------------------------------------
// One blocking-driver connection: a pooled protocol thread parks in
// receive() while timeouts live on the server's shared TimerService wheel.
// The FSM runs under mutex_ (serve thread + timer thread); effects it
// requests are recorded and executed *outside* the lock by run_effects(),
// so a blocking send or handler never stalls the timer thread, and a
// timer callback never deadlocks against a concurrent FSM call.
class HttpServer::BlockingConn final
    : public ConnectionFsm::Host,
      public std::enable_shared_from_this<HttpServer::BlockingConn> {
 public:
  BlockingConn(HttpServer& server,
               std::unique_ptr<net::Connection> connection)
      : server_(server),
        connection_(std::move(connection)),
        fsm_(*this, server.fsm_config(), server.fsm_counters(),
             server.accepting_) {}

  net::Connection* connection() { return connection_.get(); }

  /// Runs on a protocol-pool thread until the connection closes.
  void serve() {
    serve_thread_id_ = std::this_thread::get_id();
    // Timeouts come from the wheel now; receive() parks unbounded and is
    // woken by abort() when a timer closes the connection.
    (void)connection_->set_receive_timeout(kNoTimeout);
    {
      std::lock_guard lock(mutex_);
      fsm_.on_open(now());
    }
    run_effects();
    while (true) {
      {
        std::lock_guard lock(mutex_);
        if (done_ || fsm_.closed()) break;
      }
      auto bytes = connection_->receive(net::kReceiveChunk);
      if (!bytes.ok()) {
        const ErrorCode code = bytes.error().code();
        {
          std::lock_guard lock(mutex_);
          if (!done_ && !fsm_.closed()) {
            if (code != ErrorCode::kConnectionClosed) {
              SPI_LOG(kDebug, "http.server")
                  << "receive failed: " << bytes.error().to_string();
            }
            if (code == ErrorCode::kConnectionClosed) {
              fsm_.on_peer_closed();
            } else {
              fsm_.on_receive_error();
            }
          }
        }
        run_effects();
        break;
      }
      {
        std::lock_guard lock(mutex_);
        fsm_.on_bytes(bytes.value(), now());
      }
      run_effects();
    }
    run_effects();
    std::lock_guard lock(mutex_);
    cancel_timer();
  }

  // --- ConnectionFsm::Host (called with mutex_ held; effects deferred) --

  void send_bytes(std::vector<SharedBytes> segments,
                  bool close_after) override {
    // The blocking driver writes with one blocking send() per response;
    // coalescing here is the documented non-vectored fallback, and the
    // one copy of any spliced value.
    std::string bytes;
    size_t total = 0;
    for (const SharedBytes& segment : segments) total += segment.bytes.size();
    bytes.reserve(total);
    for (const SharedBytes& segment : segments) bytes += segment.bytes;
    pending_sends_.push_back(PendingSend{std::move(bytes), close_after});
  }

  void dispatch(Request request) override {
    pending_request_ = std::move(request);
  }

  void arm_timer(ConnectionFsm::TimerKind /*kind*/, Duration delay) override {
    const std::uint64_t generation = ++timer_generation_;
    if (timer_ != TimerWheel::kInvalidTimer) {
      server_.timer_service_->cancel(timer_);
    }
    auto self = shared_from_this();
    timer_ = server_.timer_service_->schedule(
        delay, [self, generation] { self->on_timer_fire(generation); });
  }

  void cancel_timer() override {
    ++timer_generation_;
    if (timer_ != TimerWheel::kInvalidTimer) {
      server_.timer_service_->cancel(timer_);
      timer_ = TimerWheel::kInvalidTimer;
    }
  }

  void close_connection() override { close_requested_ = true; }

 private:
  struct PendingSend {
    std::string bytes;
    bool close_after = false;
  };

  /// Timer-service thread. The generation check absorbs the documented
  /// TimerService race: a callback can still fire after cancel() when it
  /// was already collected.
  void on_timer_fire(std::uint64_t generation) {
    {
      std::lock_guard lock(mutex_);
      if (generation != timer_generation_ || done_ || fsm_.closed()) return;
      timer_ = TimerWheel::kInvalidTimer;
      fsm_.on_timer(now());
    }
    run_effects();
  }

  /// Executes FSM-requested effects without holding mutex_. Exclusive by
  /// construction (effects_running_): whichever thread enters first loops
  /// until the queue is dry, so bytes never interleave on the wire and
  /// the per-connection effect order is preserved.
  void run_effects() {
    {
      std::lock_guard lock(mutex_);
      if (effects_running_) return;
      effects_running_ = true;
    }
    while (true) {
      std::vector<PendingSend> sends;
      std::optional<Request> request;
      bool do_close = false;
      {
        std::lock_guard lock(mutex_);
        if (pending_sends_.empty() && !pending_request_ &&
            !close_requested_) {
          effects_running_ = false;
          return;
        }
        sends.swap(pending_sends_);
        request.swap(pending_request_);
        do_close = close_requested_;
        close_requested_ = false;
      }
      for (PendingSend& send : sends) {
        if (Status sent = connection_->send(send.bytes); !sent.ok()) {
          std::lock_guard lock(mutex_);
          if (!fsm_.closed()) fsm_.on_receive_error();
          break;
        }
        std::lock_guard lock(mutex_);
        fsm_.on_send_complete(now());
      }
      if (request) {
        Response response;
        bool failed = false;
        try {
          response = server_.handler_(std::move(*request));
        } catch (const std::exception& e) {
          SPI_LOG(kError, "http.server") << "handler threw: " << e.what();
          response = Response::make(500, "Internal Server Error", e.what());
          failed = true;
        }
        std::lock_guard lock(mutex_);
        fsm_.on_response(std::move(response), failed, now());
      }
      if (do_close) {
        connection_->close();
        {
          std::lock_guard lock(mutex_);
          done_ = true;
        }
        // A timer-thread close must also wake the serve thread parked in
        // receive(); on the serve thread itself the loop exits via done_.
        if (std::this_thread::get_id() != serve_thread_id_) {
          connection_->abort();
        }
      }
    }
  }

  HttpServer& server_;
  std::unique_ptr<net::Connection> connection_;
  std::mutex mutex_;
  ConnectionFsm fsm_;
  std::thread::id serve_thread_id_;

  // All below guarded by mutex_ except where noted.
  TimerWheel::TimerId timer_ = TimerWheel::kInvalidTimer;
  std::uint64_t timer_generation_ = 0;
  std::vector<PendingSend> pending_sends_;
  std::optional<Request> pending_request_;
  bool close_requested_ = false;
  bool effects_running_ = false;
  bool done_ = false;
};

// --- HttpServer ---------------------------------------------------------

HttpServer::HttpServer(net::Transport& transport, net::Endpoint at,
                       Handler handler, ServerOptions options)
    : transport_(transport),
      requested_endpoint_(std::move(at)),
      handler_(std::move(handler)),
      options_(options) {
  if (!handler_) {
    throw SpiError(ErrorCode::kInvalidArgument, "HttpServer: null handler");
  }
  // Fixed at construction (never resized) so metric callbacks can bind
  // per-loop label series before start() and keep reading after stop().
  loop_stats_.reserve(options_.reactor_threads);
  for (size_t i = 0; i < options_.reactor_threads; ++i) {
    loop_stats_.push_back(std::make_unique<LoopStats>());
  }
}

HttpServer::~HttpServer() { stop(); }

ConnectionFsm::Config HttpServer::fsm_config() const {
  ConnectionFsm::Config config;
  config.limits = options_.limits;
  config.header_read_timeout = options_.header_read_timeout;
  config.idle_timeout = options_.idle_timeout;
  config.read_latency = options_.read_latency;
  return config;
}

ConnectionFsm::Counters HttpServer::fsm_counters() {
  ConnectionFsm::Counters counters;
  counters.requests_served = &requests_served_;
  counters.active_requests = &active_requests_;
  counters.read_timeouts = &read_timeouts_;
  return counters;
}

Status HttpServer::start() {
  if (running_.exchange(true)) {
    return Error(ErrorCode::kAlreadyExists, "server already started");
  }
  // Accept sharding wants every listener bound with SO_REUSEPORT —
  // including the first, since reuseport groups only admit members that
  // all set the flag. Try the sharded bind first and fall back cleanly.
  const bool want_sharding = options_.accept_sharding &&
                             options_.reactor_threads > 1 &&
                             transport_.supports_reuse_port();
  Result<std::unique_ptr<net::Listener>> listener =
      want_sharding
          ? transport_.listen(requested_endpoint_,
                              net::ListenOptions{.reuse_port = true})
          : transport_.listen(requested_endpoint_);
  if (want_sharding && !listener.ok()) {
    listener = transport_.listen(requested_endpoint_);
  }
  if (!listener.ok()) {
    running_ = false;
    return listener.wrap_error("http listen");
  }
  listeners_.push_back(std::move(listener).value());
  endpoint_ = listeners_[0]->endpoint();
  reactor_mode_ =
      options_.reactor_threads > 0 && listeners_[0]->native_handle() >= 0;
  connection_pool_ = std::make_unique<ThreadPool>(
      options_.protocol_threads, "http-protocol");
  accepting_.store(true, std::memory_order_release);
  if (reactor_mode_) {
    for (size_t i = 0; i < options_.reactor_threads; ++i) {
      Reactor::Options reactor_options;
      reactor_options.name = "http-reactor-" + std::to_string(i);
      reactors_.push_back(std::make_unique<Reactor>(reactor_options));
      reactors_.back()->start();
    }
    // Sharded: grow the reuseport group to one listener per loop. The
    // endpoint is the resolved one, so port-0 binds shard correctly. All
    // or nothing — a partial group would leave some loops accept-less, so
    // any failure reverts to the single-listener round-robin fallback.
    if (want_sharding && reactor_mode_) {
      for (size_t i = 1; i < options_.reactor_threads; ++i) {
        auto sibling = transport_.listen(
            endpoint_, net::ListenOptions{.reuse_port = true});
        if (!sibling.ok()) {
          SPI_LOG(kWarn, "http.server")
              << "reuseport listener " << i
              << " failed: " << sibling.error().to_string()
              << " — falling back to single-listener accept";
          break;
        }
        listeners_.push_back(std::move(sibling).value());
      }
      accept_sharded_ = listeners_.size() == options_.reactor_threads;
      if (!accept_sharded_) listeners_.resize(1);
    }
    // Each listener lives on its own loop; every accept lands on the loop
    // that will drive the connection — no cross-loop handoff. The
    // single-listener fallback keeps the round-robin handoff from loop 0.
    listener_tokens_.resize(listeners_.size(), 0);
    for (size_t i = 0; i < listeners_.size(); ++i) {
      (void)listeners_[i]->set_nonblocking(true);
      listener_tokens_[i] = reactors_[i % reactors_.size()]->add_fd(
          listeners_[i]->native_handle(), net::Readiness::kRead,
          [this, i](std::uint32_t) { on_acceptable(i); });
    }
  } else {
    timer_service_ = std::make_unique<TimerService>("http-timer");
    acceptor_ = std::jthread([this] { accept_loop(); });
  }
  SPI_LOG(kInfo, "http.server")
      << "serving on " << endpoint_.to_string() << " ("
      << (reactor_mode_
              ? (accept_sharded_ ? "reactor driver, sharded accept"
                                 : "reactor driver")
              : "blocking driver")
      << ", " << listeners_.size() << " listener(s))";
  return Status();
}

void HttpServer::stop_accepting() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (!accepting_.exchange(false)) return;
  // Exactly one caller reaches this point, so the acceptor join (blocking
  // driver) happens once no matter how stop_accepting()/stop() interleave.
  if (reactor_mode_) {
    for (size_t i = 0; i < listener_tokens_.size(); ++i) {
      if (listener_tokens_[i] != 0) {
        reactors_[i % reactors_.size()]->remove_fd(listener_tokens_[i]);
        listener_tokens_[i] = 0;
      }
    }
    for (auto& listener : listeners_) listener->close();
  } else {
    for (auto& listener : listeners_) listener->close();
    if (acceptor_.joinable()) acceptor_.join();
  }
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_accepting();
  if (!running_.exchange(false)) return;
  if (reactor_mode_) {
    std::vector<std::shared_ptr<ReactorConn>> connections;
    {
      std::lock_guard lock(reactor_conns_mutex_);
      connections.reserve(reactor_conns_.size());
      for (auto& [pointer, shared] : reactor_conns_) {
        connections.push_back(shared);
      }
    }
    for (auto& connection : connections) connection->request_shutdown();
    // Handler tasks drain first; their posted responses land on still-
    // running loops (and are dropped — the connections are closed).
    connection_pool_.reset();
    for (auto& reactor : reactors_) reactor->stop();
    reactors_.clear();
    std::lock_guard lock(reactor_conns_mutex_);
    reactor_conns_.clear();
  } else {
    // Wake protocol threads parked in receive() on keep-alive connections;
    // without this, pool shutdown would wait on them forever.
    {
      std::lock_guard lock(live_mutex_);
      for (net::Connection* connection : live_connections_) {
        connection->abort();
      }
    }
    connection_pool_.reset();
    timer_service_.reset();
  }
  listeners_.clear();
}

bool HttpServer::reject_if_at_capacity(net::Connection& connection) {
  if (options_.max_connections == 0 ||
      open_connections_.load(std::memory_order_acquire) <
          options_.max_connections) {
    return false;
  }
  // Past the cap, answer 503 and close — the attacker's connection never
  // occupies a connection slot, so a flood of idle sockets cannot starve
  // the server.
  connections_rejected_.fetch_add(1, std::memory_order_relaxed);
  Response busy = Response::make(503, "Service Unavailable",
                                 "connection limit reached");
  busy.headers.set("Connection", "close");
  busy.headers.set("Retry-After", "1");
  (void)connection.send(busy.serialize());
  connection.close();
  return true;
}

void HttpServer::on_acceptable(size_t listener_index) {
  // The owning loop's thread: accept until the backlog is dry — but at
  // most accept_batch_per_wake per wake, so a connect flood cannot starve
  // established connections sharing this loop. Level-triggered polling
  // re-reports the listener while connections remain pending.
  const size_t loop_index = listener_index % reactors_.size();
  LoopStats& stats = *loop_stats_[loop_index];
  const size_t batch = options_.accept_batch_per_wake == 0
                           ? std::numeric_limits<size_t>::max()
                           : options_.accept_batch_per_wake;
  for (size_t accepted = 0;
       accepted < batch && accepting_.load(std::memory_order_acquire);
       ++accepted) {
    auto connection = listeners_[listener_index]->try_accept();
    if (!connection.ok()) {
      const ErrorCode code = connection.error().code();
      if (code != ErrorCode::kWouldBlock && code != ErrorCode::kShutdown) {
        SPI_LOG(kWarn, "http.server")
            << "accept failed: " << connection.error().to_string();
      }
      return;
    }
    if (reject_if_at_capacity(*connection.value())) continue;
    stats.accepts.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    if (accept_sharded_) {
      // The kernel already sharded this connection to our loop: attach it
      // right here, on the loop thread — no cross-loop post.
      attach_reactor_connection(std::move(connection).value(), loop_index,
                                /*on_loop_thread=*/true);
    } else {
      attach_reactor_connection(
          std::move(connection).value(),
          next_reactor_.fetch_add(1, std::memory_order_relaxed) %
              reactors_.size(),
          /*on_loop_thread=*/false);
    }
  }
}

void HttpServer::attach_reactor_connection(
    std::unique_ptr<net::Connection> connection, size_t loop_index,
    bool on_loop_thread) {
  Reactor& reactor = *reactors_[loop_index];
  auto conn = std::make_shared<ReactorConn>(
      *this, reactor, *loop_stats_[loop_index], std::move(connection));
  {
    std::lock_guard lock(reactor_conns_mutex_);
    reactor_conns_.emplace(conn.get(), conn);
  }
  if (on_loop_thread) {
    conn->open();
  } else {
    reactor.post([conn] { conn->open(); });
  }
}

void HttpServer::detach_reactor_connection(ReactorConn* connection) {
  std::lock_guard lock(reactor_conns_mutex_);
  reactor_conns_.erase(connection);
}

void HttpServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    auto connection = listeners_[0]->accept();
    if (!connection.ok()) {
      if (connection.error().code() == ErrorCode::kShutdown) return;
      SPI_LOG(kWarn, "http.server")
          << "accept failed: " << connection.error().to_string();
      continue;
    }
    if (reject_if_at_capacity(*connection.value())) continue;
    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    auto conn = std::make_shared<BlockingConn>(
        *this, std::move(connection).value());
    bool accepted = connection_pool_->submit([this, conn] {
      // Register for abort-on-stop; unregister before the connection dies.
      {
        std::lock_guard lock(live_mutex_);
        live_connections_.insert(conn->connection());
      }
      conn->serve();
      {
        std::lock_guard lock(live_mutex_);
        live_connections_.erase(conn->connection());
      }
      open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    });
    if (!accepted) {
      open_connections_.fetch_sub(1, std::memory_order_acq_rel);
      return;  // shutting down
    }
  }
}

std::uint64_t HttpServer::reactor_loop_iterations() const {
  std::uint64_t total = 0;
  for (const auto& reactor : reactors_) total += reactor->iterations();
  return total;
}

size_t HttpServer::reactor_connections() const {
  std::lock_guard lock(reactor_conns_mutex_);
  return reactor_conns_.size();
}

HttpServer::LoopSnapshot HttpServer::loop_snapshot(size_t loop_index) const {
  LoopSnapshot snapshot;
  if (loop_index >= loop_stats_.size()) return snapshot;
  const LoopStats& stats = *loop_stats_[loop_index];
  snapshot.connections = stats.connections.load(std::memory_order_relaxed);
  snapshot.accepts = stats.accepts.load(std::memory_order_relaxed);
  snapshot.bytes_written =
      stats.bytes_written.load(std::memory_order_relaxed);
  snapshot.sendv_batches =
      stats.sendv_batches.load(std::memory_order_relaxed);
  snapshot.sendv_segments =
      stats.sendv_segments.load(std::memory_order_relaxed);
  return snapshot;
}

std::uint64_t HttpServer::sendv_batches() const {
  std::uint64_t total = 0;
  for (const auto& stats : loop_stats_) {
    total += stats->sendv_batches.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t HttpServer::sendv_segments() const {
  std::uint64_t total = 0;
  for (const auto& stats : loop_stats_) {
    total += stats->sendv_segments.load(std::memory_order_relaxed);
  }
  return total;
}

size_t HttpServer::timer_wheel_depth() const {
  if (reactor_mode_) {
    size_t total = 0;
    for (const auto& reactor : reactors_) total += reactor->timer_depth();
    return total;
  }
  return timer_service_ ? timer_service_->size() : 0;
}

}  // namespace spi::http
