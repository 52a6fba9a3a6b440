// Per-connection HTTP/1.1 state machine, shared by both connection
// drivers (DESIGN.md §12):
//   * the reactor driver feeds it readiness-event slices on the loop
//     thread (no locks — single-threaded by construction)
//   * the blocking driver feeds it from a per-connection protocol thread
//     under a small mutex it shares with the timer service
//
// The FSM owns the incremental MessageParser and every protocol decision
// (when to 400/408, when a request dispatches, when keep-alive ends, which
// timeout is armed). It performs no I/O itself: effects go through the
// Host interface, so the machine is testable with a fake host and
// identical across transports.
//
//            bytes           headers done        framing done
//  keep-alive-idle ──> reading-headers ──> reading-body ──> dispatched
//        ^                                                     │ response
//        │              keep-alive                             v
//        └─────────────────────────────────────── writing-response ──> closed
//                                                        (Connection: close)
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "common/timeout.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"

namespace spi::http {

/// The connection-lifecycle states. One request is in flight at a time
/// (pipelined requests queue in the parser until the response is written,
/// exactly like the old per-thread read loop).
enum class ConnectionState {
  kReadingHeaders,   // a request has started; its framing is incomplete
  kReadingBody,      // headers parsed; body bytes still arriving
  kDispatched,       // request handed to the handler; reads paused
  kWritingResponse,  // response bytes flushing to the transport
  kKeepAliveIdle,    // between messages, waiting for the next request
  kClosed,           // terminal
};

const char* to_string(ConnectionState state);

class ConnectionFsm {
 public:
  /// Which deadline is armed. At most one timer exists per connection.
  enum class TimerKind { kNone, kHeaderRead, kIdle };

  /// FSM tuning, a transport-free subset of ServerOptions.
  struct Config {
    ParserLimits limits;
    Duration header_read_timeout = kNoTimeout;
    Duration idle_timeout = kNoTimeout;
    spi::LatencyHistogram* read_latency = nullptr;
  };

  /// Server-wide counters the FSM keeps honest (all unowned).
  struct Counters {
    std::atomic<std::uint64_t>* requests_served = nullptr;
    std::atomic<size_t>* active_requests = nullptr;
    std::atomic<std::uint64_t>* read_timeouts = nullptr;
  };

  /// Effect sink, implemented by the driver. Calls arrive on whichever
  /// thread invoked the FSM; drivers that defer execution (to escape a
  /// lock) must preserve per-connection ordering.
  class Host {
   public:
    virtual ~Host() = default;

    /// Queue one serialized response as ordered wire segments
    /// (Response::take_wire_pieces: the head, then the body's framing and
    /// splices, none of them copied). Each segment's owner keeps its bytes
    /// alive until the driver drops the segment, once written. Vectored
    /// drivers gather them straight to the socket as iovecs; others may
    /// coalesce. The driver calls on_send_complete() once every byte of
    /// every segment has reached the transport.
    virtual void send_bytes(std::vector<SharedBytes> segments,
                            bool close_after) = 0;

    /// Run the handler for a parsed request; the driver answers with
    /// on_response() when it finishes.
    virtual void dispatch(Request request) = 0;

    /// Replace the connection's timer (there is at most one). The driver
    /// calls on_timer() when it fires.
    virtual void arm_timer(TimerKind kind, Duration delay) = 0;
    virtual void cancel_timer() = 0;

    /// Tear down the transport connection. Nothing more will be sent.
    virtual void close_connection() = 0;
  };

  /// `accepting` is the server's drain flag: when it goes false, responses
  /// get "Connection: close" so keep-alive peers converge instead of
  /// waiting for an abort.
  ConnectionFsm(Host& host, const Config& config, Counters counters,
                const std::atomic<bool>& accepting);

  // --- events (driver -> FSM) ------------------------------------------
  void on_open(TimePoint now);
  void on_bytes(std::string_view bytes, TimePoint now);
  /// Where a receive may write the current request's body directly
  /// (MessageParser::body_space), empty unless one has begun.
  std::span<char> body_space() { return parser_.body_space(); }
  /// `n` bytes were received into body_space().
  void on_body_bytes(size_t n, TimePoint now);
  void on_peer_closed();
  void on_receive_error();
  /// The armed timer fired. Mid-message → 408 shed; idle → silent close.
  void on_timer(TimePoint now);
  /// Handler finished. `handler_failed` forces Connection: close (the
  /// driver already built the 500).
  void on_response(Response response, bool handler_failed, TimePoint now);
  /// The last send_bytes() payload fully reached the transport.
  void on_send_complete(TimePoint now);

  // --- views (driver -> FSM) -------------------------------------------
  ConnectionState state() const { return state_; }
  bool closed() const { return state_ == ConnectionState::kClosed; }
  /// Reactor read-interest: false while a request executes or a response
  /// flushes (natural backpressure — the kernel buffers, we don't).
  bool wants_read() const {
    return state_ == ConnectionState::kReadingHeaders ||
           state_ == ConnectionState::kReadingBody ||
           state_ == ConnectionState::kKeepAliveIdle;
  }

 private:
  /// Polls the parser and advances until blocked on input, a dispatch, or
  /// a write. Heart of the machine; runs after feeds and after responses.
  void process(TimePoint now);
  void respond_and_close(int status_code, std::string_view reason,
                         std::string_view body);
  /// The response's wire segments, nothing copied.
  static std::vector<SharedBytes> serialize_segments(Response response);
  void arm_idle_timer();
  void finish_request_accounting();

  Host& host_;
  Config config_;
  Counters counters_;
  const std::atomic<bool>& accepting_;

  MessageParser parser_;
  ConnectionState state_ = ConnectionState::kKeepAliveIdle;
  TimerKind timer_kind_ = TimerKind::kNone;
  bool close_after_write_ = false;
  /// True between "framing parsed" and "response sent" — the span counted
  /// in active_requests (shed/error responses don't enter it).
  bool request_in_flight_ = false;
  bool pending_keep_alive_ = false;
  /// HTTP-read span: first byte of a request -> framing complete.
  std::optional<TimePoint> read_start_;
};

}  // namespace spi::http
