#include "http/connection_fsm.hpp"

#include "common/logging.hpp"

namespace spi::http {

const char* to_string(ConnectionState state) {
  switch (state) {
    case ConnectionState::kReadingHeaders:
      return "reading-headers";
    case ConnectionState::kReadingBody:
      return "reading-body";
    case ConnectionState::kDispatched:
      return "dispatched";
    case ConnectionState::kWritingResponse:
      return "writing-response";
    case ConnectionState::kKeepAliveIdle:
      return "keep-alive-idle";
    case ConnectionState::kClosed:
      return "closed";
  }
  return "unknown";
}

ConnectionFsm::ConnectionFsm(Host& host, const Config& config,
                             Counters counters,
                             const std::atomic<bool>& accepting)
    : host_(host),
      config_(config),
      counters_(counters),
      accepting_(accepting),
      parser_(MessageParser::Mode::kRequest, config.limits) {}

void ConnectionFsm::on_open(TimePoint now) {
  (void)now;
  state_ = ConnectionState::kKeepAliveIdle;
  arm_idle_timer();
}

void ConnectionFsm::on_bytes(std::string_view bytes, TimePoint now) {
  if (state_ == ConnectionState::kClosed || bytes.empty()) return;
  if (config_.read_latency && !read_start_) read_start_ = now;
  parser_.feed(bytes);
  process(now);
}

void ConnectionFsm::on_body_bytes(size_t n, TimePoint now) {
  if (state_ == ConnectionState::kClosed || n == 0) return;
  parser_.commit_body(n);
  process(now);
}

void ConnectionFsm::process(TimePoint now) {
  while (state_ != ConnectionState::kClosed) {
    // A request executing or a response flushing blocks further parsing
    // (one request in flight; pipelined successors wait in the buffer).
    if (state_ == ConnectionState::kDispatched ||
        state_ == ConnectionState::kWritingResponse) {
      return;
    }
    std::optional<Request> request = parser_.poll_request();
    // Framing errors surface during the poll, not the feed.
    if (parser_.failed()) {
      SPI_LOG(kDebug, "http.server")
          << "bad request: " << parser_.error().to_string();
      respond_and_close(400, "Bad Request", parser_.error().to_string());
      return;
    }
    if (request) {
      if (config_.read_latency && read_start_) {
        auto elapsed = now - *read_start_;
        config_.read_latency->record_us(
            std::chrono::duration<double, std::micro>(elapsed).count());
      }
      read_start_.reset();
      host_.cancel_timer();
      timer_kind_ = TimerKind::kNone;
      if (counters_.active_requests) {
        counters_.active_requests->fetch_add(1, std::memory_order_acq_rel);
      }
      request_in_flight_ = true;
      pending_keep_alive_ = request->keep_alive();
      state_ = ConnectionState::kDispatched;
      host_.dispatch(std::move(*request));
      return;
    }
    if (parser_.mid_message()) {
      state_ = parser_.in_body() ? ConnectionState::kReadingBody
                                 : ConnectionState::kReadingHeaders;
      if (!is_unbounded(config_.header_read_timeout)) {
        // One budget for the whole message, armed at its first byte;
        // progress does NOT extend it (slowloris defense, §11).
        if (timer_kind_ != TimerKind::kHeaderRead) {
          host_.arm_timer(TimerKind::kHeaderRead,
                          config_.header_read_timeout);
          timer_kind_ = TimerKind::kHeaderRead;
        }
      } else if (!is_unbounded(config_.idle_timeout)) {
        // No read deadline: fall back to the idle timeout as a progress
        // timeout, refreshed per delivery (the blocking driver's old
        // per-receive behaviour).
        host_.arm_timer(TimerKind::kIdle, config_.idle_timeout);
        timer_kind_ = TimerKind::kIdle;
      }
      return;
    }
    // Clean boundary between messages.
    state_ = ConnectionState::kKeepAliveIdle;
    read_start_.reset();
    arm_idle_timer();
    return;
  }
}

void ConnectionFsm::on_peer_closed() {
  if (state_ == ConnectionState::kClosed) return;
  if (parser_.mid_message()) {
    SPI_LOG(kDebug, "http.server") << "peer closed mid-message";
  }
  finish_request_accounting();
  host_.cancel_timer();
  timer_kind_ = TimerKind::kNone;
  state_ = ConnectionState::kClosed;
  host_.close_connection();
}

void ConnectionFsm::on_receive_error() { on_peer_closed(); }

void ConnectionFsm::on_timer(TimePoint now) {
  (void)now;
  timer_kind_ = TimerKind::kNone;
  // A timer racing a state change (response already dispatched or being
  // written) is stale — progress happened.
  if (state_ != ConnectionState::kReadingHeaders &&
      state_ != ConnectionState::kReadingBody &&
      state_ != ConnectionState::kKeepAliveIdle) {
    return;
  }
  if (parser_.mid_message()) {
    // The peer is dribbling a request slower than the read deadline
    // allows: answer 408 and reclaim the connection.
    if (counters_.read_timeouts) {
      counters_.read_timeouts->fetch_add(1, std::memory_order_relaxed);
    }
    respond_and_close(408, "Request Timeout",
                      "request did not complete within the read deadline");
  } else {
    // Idle keep-alive expiry between messages: nothing to answer.
    state_ = ConnectionState::kClosed;
    host_.close_connection();
  }
}

void ConnectionFsm::on_response(Response response, bool handler_failed,
                                TimePoint now) {
  (void)now;
  if (state_ != ConnectionState::kDispatched) return;  // closed meanwhile
  bool keep = pending_keep_alive_ && !handler_failed;
  // While draining, tell keep-alive peers to go away after this response
  // so the connection count converges instead of waiting for abort().
  if (!accepting_.load(std::memory_order_acquire)) keep = false;
  if (!keep) response.headers.set("Connection", "close");
  if (counters_.requests_served) {
    counters_.requests_served->fetch_add(1, std::memory_order_relaxed);
  }
  state_ = ConnectionState::kWritingResponse;
  close_after_write_ = !keep;
  host_.send_bytes(serialize_segments(std::move(response)), !keep);
}

std::vector<SharedBytes> ConnectionFsm::serialize_segments(
    Response response) {
  // The head, the body's framing and its splices stay separate segments;
  // none is copied, so the only memcpy left on the vectored wire path is
  // the kernel's.
  return response.take_wire_pieces();
}

void ConnectionFsm::on_send_complete(TimePoint now) {
  if (state_ != ConnectionState::kWritingResponse) return;
  finish_request_accounting();
  if (close_after_write_) {
    state_ = ConnectionState::kClosed;
    host_.close_connection();
    return;
  }
  state_ = ConnectionState::kKeepAliveIdle;
  arm_idle_timer();
  // Pipelined requests may already be buffered; serve them now rather
  // than waiting for more bytes.
  process(now);
}

void ConnectionFsm::respond_and_close(int status_code, std::string_view reason,
                                      std::string_view body) {
  Response response = Response::make(status_code, std::string(reason),
                                     std::string(body));
  response.headers.set("Connection", "close");
  host_.cancel_timer();
  timer_kind_ = TimerKind::kNone;
  state_ = ConnectionState::kWritingResponse;
  close_after_write_ = true;
  host_.send_bytes(serialize_segments(std::move(response)), true);
}

void ConnectionFsm::arm_idle_timer() {
  if (!is_unbounded(config_.idle_timeout)) {
    host_.arm_timer(TimerKind::kIdle, config_.idle_timeout);
    timer_kind_ = TimerKind::kIdle;
  } else {
    host_.cancel_timer();
    timer_kind_ = TimerKind::kNone;
  }
}

void ConnectionFsm::finish_request_accounting() {
  if (!request_in_flight_) return;
  request_in_flight_ = false;
  if (counters_.active_requests) {
    counters_.active_requests->fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace spi::http
