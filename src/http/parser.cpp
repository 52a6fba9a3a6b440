#include "http/parser.hpp"

#include <algorithm>
#include <cstring>

#include "common/buffer_pool.hpp"
#include "common/string_util.hpp"
#include "net/transport.hpp"

namespace spi::http {

namespace {

/// Parses an RFC 9110 qvalue: "0", "1", "0.500", "1.000". Returns nullopt
/// on anything else (including out-of-range) so the caller can drop just
/// that list member.
std::optional<double> parse_qvalue(std::string_view text) {
  if (text.empty() || text.size() > 5) return std::nullopt;
  if (text[0] != '0' && text[0] != '1') return std::nullopt;
  double value = text[0] - '0';
  if (text.size() == 1) return value;
  if (text[1] != '.') return std::nullopt;
  double scale = 0.1;
  for (size_t i = 2; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    value += (text[i] - '0') * scale;
    scale *= 0.1;
  }
  if (value > 1.0) return std::nullopt;  // "1.001"
  return value;
}

bool valid_coding_token(std::string_view token) {
  if (token.empty()) return false;
  if (token == "*") return true;
  for (char c : token) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '+' ||
              c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::vector<AcceptEncodingEntry> parse_accept_encoding(std::string_view value) {
  std::vector<AcceptEncodingEntry> entries;
  for (std::string_view member : split_trimmed(value, ',')) {
    if (member.empty()) continue;  // stray commas are tolerated
    AcceptEncodingEntry entry;
    std::vector<std::string_view> parts = split_trimmed(member, ';');
    if (parts.empty() || !valid_coding_token(parts[0])) continue;
    entry.name = to_lower(parts[0]);
    bool malformed = false;
    for (size_t i = 1; i < parts.size(); ++i) {
      std::string_view param = parts[i];
      size_t eq = param.find('=');
      if (eq == std::string_view::npos) {
        malformed = true;
        break;
      }
      std::string key = to_lower(trim(param.substr(0, eq)));
      std::string_view raw = trim(param.substr(eq + 1));
      if (key == "q") {
        std::optional<double> q = parse_qvalue(raw);
        if (!q) {
          malformed = true;
          break;
        }
        entry.q = *q;
      }
      // Unknown parameters are ignored per RFC 9110 extensibility rules.
    }
    if (malformed) continue;
    // q=0 means "not acceptable" — the member parses fine, the coding is
    // simply excluded from the negotiation set.
    if (entry.q <= 0.0) continue;
    entries.push_back(std::move(entry));
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const AcceptEncodingEntry& a,
                      const AcceptEncodingEntry& b) { return a.q > b.q; });
  return entries;
}

MessageParser::MessageParser(Mode mode, ParserLimits limits)
    : mode_(mode), limits_(limits) {}

void MessageParser::feed(std::string_view bytes) {
  if (failed_) return;
  // Body bytes with nothing buffered ahead of them go straight into the
  // message body: one copy, no staging in buffer_. The rest (headers, a
  // chunk's CRLF, a pipelined successor) is buffered for advance().
  if (buffer_.empty()) bytes.remove_prefix(append_body(bytes));
  if (!bytes.empty()) buffer_.append(bytes);
}

std::string& MessageParser::body() {
  return mode_ == Mode::kRequest ? request_.body : response_.body;
}

size_t MessageParser::append_body(std::string_view bytes) {
  size_t* remaining = nullptr;
  if (state_ == State::kBody) {
    remaining = &body_remaining_;
  } else if (state_ == State::kChunkData) {
    remaining = &chunk_remaining_;
  } else {
    return 0;
  }
  const size_t take = std::min(*remaining, bytes.size());
  if (take == 0) return 0;
  std::string& out = body();
  if (state_ == State::kChunkData) {
    // Chunked bodies grow geometrically: no total length is known.
    out.append(bytes.data(), take);
    chunk_remaining_ -= take;
    return take;
  }
  // A Content-Length body's buffer is taken at its first byte: the length
  // already passed max_body_bytes, and a peer that sends headers and then
  // stalls never gets the allocation. An envelope-sized body comes from
  // the buffer pool (common/buffer_pool.hpp) and goes back to it when the
  // last reader of its parsed Document lets go. A reused buffer is sized
  // to the whole body at once; a fresh one is only reserved, and grows as
  // bytes arrive (body_space()).
  if (out.empty()) out = buffer_pool::take_for_overwrite(body_length_);
  const size_t at = body_length_ - body_remaining_;
  // Into the space body_space() opened, and appended past it.
  const size_t fits = std::min(take, out.size() - at);
  std::memcpy(out.data() + at, bytes.data(), fits);
  out.append(bytes.data() + fits, take - fits);
  commit_body(take);
  return take;
}

std::span<char> MessageParser::body_space() {
  if (failed_ || state_ != State::kBody || !buffer_.empty()) return {};
  std::string& out = body();
  if (out.empty()) return {};  // before the body's first byte
  const size_t at = body_length_ - body_remaining_;
  if (out.size() == at) {
    // A fresh buffer: open at most as many bytes again as have arrived,
    // and at least one receive chunk, so what this side writes stays
    // within twice what the peer sent plus a chunk. Inside the
    // reservation, so nothing moves.
    out.resize(at + std::min(body_remaining_,
                             std::max(at, net::kReceiveChunk)));
  }
  return {out.data() + at, out.size() - at};
}

void MessageParser::commit_body(size_t n) {
  body_remaining_ -= n;
  if (body_remaining_ == 0) state_ = State::kComplete;
}

void MessageParser::fail(std::string message) {
  failed_ = true;
  error_ = Error(ErrorCode::kProtocolError, std::move(message));
}

std::optional<std::string> MessageParser::take_line() {
  size_t eol = buffer_.find("\r\n");
  if (eol == ByteBuffer::npos) {
    if (buffer_.size() > limits_.max_header_bytes) {
      fail("header line exceeds limit");
    }
    return std::nullopt;
  }
  std::string line = buffer_.read_string(eol);
  buffer_.consume(2);
  header_bytes_ += eol + 2;
  if (header_bytes_ > limits_.max_header_bytes) {
    fail("headers exceed size limit");
    return std::nullopt;
  }
  return line;
}

bool MessageParser::parse_start_line(std::string_view line) {
  if (mode_ == Mode::kRequest) {
    // METHOD SP TARGET SP HTTP/1.x
    auto parts = split(line, ' ');
    if (parts.size() != 3) {
      fail("malformed request line");
      return false;
    }
    if (parts[2] != "HTTP/1.1" && parts[2] != "HTTP/1.0") {
      fail("unsupported HTTP version '" + std::string(parts[2]) + "'");
      return false;
    }
    if (parts[0].empty() || parts[1].empty()) {
      fail("empty method or target");
      return false;
    }
    request_ = Request{};
    request_.method = std::string(parts[0]);
    request_.target = std::string(parts[1]);
    if (parts[2] == "HTTP/1.0") {
      // 1.0 default is close; normalize so keep_alive() is uniform.
      request_.headers.set("Connection", "close");
    }
  } else {
    // HTTP/1.x SP STATUS SP REASON
    if (!starts_with(line, "HTTP/1.")) {
      fail("malformed status line");
      return false;
    }
    size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos) {
      fail("malformed status line");
      return false;
    }
    size_t sp2 = line.find(' ', sp1 + 1);
    std::string_view code = line.substr(
        sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos
                                               : sp2 - sp1 - 1);
    auto status = parse_u64(code);
    if (!status || *status < 100 || *status > 599) {
      fail("invalid status code '" + std::string(code) + "'");
      return false;
    }
    response_ = Response{};
    response_.status = static_cast<int>(*status);
    response_.reason = sp2 == std::string_view::npos
                           ? std::string()
                           : std::string(line.substr(sp2 + 1));
  }
  return true;
}

bool MessageParser::parse_header_line(std::string_view line) {
  size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    fail("malformed header line");
    return false;
  }
  std::string_view name = line.substr(0, colon);
  // RFC 7230 tokens: no whitespace or control characters in field names.
  for (char c : name) {
    if (c <= ' ' || c == 0x7f) {
      fail("invalid header field name");
      return false;
    }
  }
  if (name.empty()) {
    fail("empty header field name");
    return false;
  }
  std::string_view value = trim(line.substr(colon + 1));
  Headers& headers =
      mode_ == Mode::kRequest ? request_.headers : response_.headers;
  headers.add(name, value);
  return true;
}

bool MessageParser::on_headers_complete() {
  const Headers& headers =
      mode_ == Mode::kRequest ? request_.headers : response_.headers;

  chunked_ = false;
  if (auto te = headers.get("Transfer-Encoding")) {
    if (iequals(trim(*te), "chunked")) {
      chunked_ = true;
    } else {
      fail("unsupported Transfer-Encoding '" + std::string(*te) + "'");
      return false;
    }
  }

  if (chunked_) {
    if (headers.contains("Content-Length")) {
      fail("both Content-Length and Transfer-Encoding present");
      return false;
    }
    state_ = State::kChunkSize;
    return true;
  }

  auto length_header = headers.get("Content-Length");
  if (!length_header) {
    // No body. (Responses to POST always carry Content-Length in this
    // stack; read-until-close is deliberately unsupported.)
    body_remaining_ = 0;
    state_ = State::kComplete;
    return true;
  }
  auto length = parse_u64(trim(*length_header));
  if (!length) {
    fail("invalid Content-Length '" + std::string(*length_header) + "'");
    return false;
  }
  if (*length > limits_.max_body_bytes) {
    fail("body exceeds size limit");
    return false;
  }
  body_length_ = static_cast<size_t>(*length);
  body_remaining_ = body_length_;
  state_ = body_remaining_ == 0 ? State::kComplete : State::kBody;
  return true;
}

bool MessageParser::advance() {
  switch (state_) {
    case State::kStartLine: {
      // Tolerate leading CRLF between pipelined messages (RFC 7230 §3.5).
      while (buffer_.size() >= 2 && buffer_.view().substr(0, 2) == "\r\n") {
        buffer_.consume(2);
      }
      auto line = take_line();
      if (!line) return false;
      if (!parse_start_line(*line)) return false;
      state_ = State::kHeaders;
      return true;
    }
    case State::kHeaders: {
      auto line = take_line();
      if (!line) return false;
      if (line->empty()) return on_headers_complete();
      return parse_header_line(*line);
    }
    case State::kBody: {
      if (buffer_.empty()) return false;
      buffer_.consume(append_body(buffer_.view()));
      return true;
    }
    case State::kChunkSize: {
      auto line = take_line();
      if (!line) return false;
      // Ignore chunk extensions after ';'.
      std::string_view size_field = trim(split(*line, ';')[0]);
      auto size = parse_hex_u64(size_field);
      if (!size) {
        fail("invalid chunk size '" + *line + "'");
        return false;
      }
      if (body().size() + *size > limits_.max_body_bytes) {
        fail("chunked body exceeds size limit");
        return false;
      }
      chunk_remaining_ = static_cast<size_t>(*size);
      state_ = chunk_remaining_ == 0 ? State::kChunkTrailer : State::kChunkData;
      return true;
    }
    case State::kChunkData: {
      if (buffer_.empty()) return false;
      buffer_.consume(append_body(buffer_.view()));
      if (chunk_remaining_ == 0) {
        if (buffer_.size() < 2) return false;
        if (buffer_.view().substr(0, 2) != "\r\n") {
          fail("chunk data not terminated by CRLF");
          return false;
        }
        buffer_.consume(2);
        state_ = State::kChunkSize;
      }
      return true;
    }
    case State::kChunkTrailer: {
      auto line = take_line();
      if (!line) return false;
      if (line->empty()) state_ = State::kComplete;
      // Non-empty trailer headers are parsed and discarded.
      return true;
    }
    case State::kComplete:
      message_ready_ = true;
      return false;
  }
  return false;
}

std::optional<Request> MessageParser::poll_request() {
  if (mode_ != Mode::kRequest) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "poll_request on a response parser");
  }
  while (!failed_ && state_ != State::kComplete && advance()) {
  }
  if (failed_ || state_ != State::kComplete) return std::nullopt;
  Request out = std::move(request_);
  request_ = Request{};
  state_ = State::kStartLine;
  header_bytes_ = 0;
  message_ready_ = false;
  return out;
}

std::optional<Response> MessageParser::poll_response() {
  if (mode_ != Mode::kResponse) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "poll_response on a request parser");
  }
  while (!failed_ && state_ != State::kComplete && advance()) {
  }
  if (failed_ || state_ != State::kComplete) return std::nullopt;
  Response out = std::move(response_);
  response_ = Response{};
  state_ = State::kStartLine;
  header_bytes_ = 0;
  message_ready_ = false;
  return out;
}

}  // namespace spi::http
