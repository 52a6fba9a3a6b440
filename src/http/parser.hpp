// Incremental HTTP/1.1 parser. Bytes are fed in arbitrary slices (as the
// transport delivers them); the parser accumulates until a complete message
// is available. Supports Content-Length and chunked transfer-encoding
// bodies, enforces size limits, and validates framing strictly.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/error.hpp"
#include "http/message.hpp"

namespace spi::http {

/// One coding from an Accept-Encoding header, after qvalue parsing.
struct AcceptEncodingEntry {
  std::string name;  // lower-cased coding token ("deflate", "bxml", "*")
  double q = 1.0;    // quality in [0, 1]
};

/// Parses an Accept-Encoding value ("bxml, deflate;q=0.5, identity;q=0.1")
/// into entries sorted by descending q (ties keep header order). Entries
/// with q=0 — the client refusing a coding, e.g. "identity;q=0" — and
/// malformed list members are dropped rather than faulting the exchange:
/// content negotiation is best-effort and a server that cannot honor the
/// preferences simply answers with whatever codings remain acceptable.
std::vector<AcceptEncodingEntry> parse_accept_encoding(std::string_view value);

struct ParserLimits {
  size_t max_header_bytes = 64 * 1024;
  /// Sized for the Figure 7 workload — 128 x 100 KB payloads pack into a
  /// single ~13 MB SOAP message — with headroom, while refusing the
  /// memory-exhaustion bodies an unbounded (or 256 MB) default would
  /// happily buffer. Raise per deployment via ServerOptions.http_limits.
  size_t max_body_bytes = 64 * 1024 * 1024;
};

/// Parses one message at a time from a byte stream.
///
///   MessageParser parser(MessageParser::Mode::kRequest);
///   parser.feed(bytes);
///   while (auto msg = parser.poll_request()) { handle(*msg); }
///
/// poll_* returns nullopt until a full message is buffered; framing errors
/// surface through error(). Trailing bytes after a message belong to the
/// next message on the same connection (pipelining/keep-alive).
class MessageParser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit MessageParser(Mode mode, ParserLimits limits = {});

  /// Appends raw bytes from the transport. Body bytes arriving with
  /// nothing buffered ahead of them are copied straight into the message
  /// body, so each body byte is copied once.
  void feed(std::string_view bytes);

  /// Unwritten bytes of the current Content-Length body, for a receive
  /// straight into them (net::Connection::try_receive_into). Offered only
  /// once the body's first byte has arrived, so a peer that sends headers
  /// and stalls never gets the allocation, and only while nothing is
  /// buffered ahead of it. A body in a buffer reused from the buffer pool
  /// offers its whole rest. A fresh one is only reserved, and each call
  /// that finds its space filled opens at most as many bytes again as
  /// have arrived (at least net::kReceiveChunk), so a peer that declares
  /// a large body and sends one byte does not make this side fill it.
  /// Empty otherwise: before the first body byte, in headers, in chunked
  /// bodies. It never reaches past the body, so a pipelined successor's
  /// bytes stay in the transport.
  std::span<char> body_space();

  /// Counts `n` bytes written at the start of body_space() as received
  /// (n <= body_space().size()).
  void commit_body(size_t n);

  /// True once a framing error has been detected; parsing cannot continue
  /// on this connection.
  bool failed() const { return failed_; }
  const Error& error() const { return error_; }

  /// Extracts the next complete request/response, if any. Must match the
  /// parser's Mode. Returns nullopt when more bytes are needed.
  std::optional<Request> poll_request();
  std::optional<Response> poll_response();

  /// Bytes currently buffered but not yet consumed (diagnostics).
  size_t buffered_bytes() const { return buffer_.size(); }

  /// True if a message is mid-parse (headers or body partially received).
  /// Used to distinguish clean connection close from truncation.
  bool mid_message() const { return state_ != State::kStartLine || buffer_.size() > 0; }

  /// True once the current message's headers are complete and its body is
  /// still arriving. The connection FSM uses this to pick the right
  /// timeout: header-read deadline before, body progress after.
  bool in_body() const {
    return state_ == State::kBody || state_ == State::kChunkSize ||
           state_ == State::kChunkData || state_ == State::kChunkTrailer;
  }

 private:
  enum class State { kStartLine, kHeaders, kBody, kChunkSize, kChunkData,
                     kChunkTrailer, kComplete };

  bool advance();  // runs the state machine; true if progress was made
  bool parse_start_line(std::string_view line);
  bool parse_header_line(std::string_view line);
  bool on_headers_complete();
  void fail(std::string message);
  std::optional<std::string> take_line();
  /// The in-progress message's body.
  std::string& body();
  /// Moves the leading bytes of `bytes` that belong to the current
  /// Content-Length body or chunk into body(); returns how many it took
  /// (0 outside body states).
  size_t append_body(std::string_view bytes);

  Mode mode_;
  ParserLimits limits_;
  ByteBuffer buffer_;
  State state_ = State::kStartLine;

  // In-progress message.
  Request request_;
  Response response_;
  size_t header_bytes_ = 0;
  size_t body_length_ = 0;  // the Content-Length
  size_t body_remaining_ = 0;
  size_t chunk_remaining_ = 0;
  bool chunked_ = false;

  bool message_ready_ = false;
  bool failed_ = false;
  Error error_;
};

}  // namespace spi::http
