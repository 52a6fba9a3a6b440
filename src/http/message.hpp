// HTTP/1.1 message model: header multimap with case-insensitive names,
// request/response structs, and wire serialization. SOAP 1.1 binds to HTTP
// POST with a SOAPAction header; this layer is nevertheless a complete
// generic HTTP implementation (any method, chunked bodies, keep-alive).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace spi::http {

/// Ordered header collection. Lookup is ASCII case-insensitive; insertion
/// order is preserved on the wire (some 2006-era SOAP stacks cared).
class Headers {
 public:
  /// Replaces all existing values of `name`.
  void set(std::string_view name, std::string_view value);

  /// Appends without replacing (multi-valued headers).
  void add(std::string_view name, std::string_view value);

  /// First value, if present.
  std::optional<std::string_view> get(std::string_view name) const;

  /// All values of `name` in insertion order.
  std::vector<std::string_view> get_all(std::string_view name) const;

  bool contains(std::string_view name) const { return get(name).has_value(); }
  void remove(std::string_view name);

  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// Serializes "Name: value\r\n" lines (no terminating blank line).
  void serialize(std::string& out) const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct Request {
  std::string method = "POST";
  std::string target = "/";
  Headers headers;
  std::string body;

  /// Full wire form. Sets Content-Length from the body (overriding any
  /// stale value) and Host if absent.
  std::string serialize() const;

  /// Wire form of everything before the body: request line, headers (with
  /// Content-Length and Host as serialize() sets them), terminating blank
  /// line. serialize() == serialize_head() + body; the async client sends
  /// [head, body] as two segments with the body moved, never copied.
  std::string serialize_head() const;

  /// Wire form using chunked transfer-encoding: the body is framed as
  /// `chunk_bytes`-sized chunks (message chunking per Chiu et al. §2.2 —
  /// lets a sender stream a body it hasn't finished producing).
  std::string serialize_chunked(size_t chunk_bytes) const;

  /// True when the message requests a persistent connection
  /// (HTTP/1.1 default unless "Connection: close").
  bool keep_alive() const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  std::string body;

  std::string serialize() const;

  /// Wire form of everything before the body: status line, headers (with
  /// Content-Length set from the body), terminating blank line. Lets the
  /// vectored send path put [head, body] on the wire as separate iovec
  /// segments with the body moved, never copied (DESIGN.md §13).
  std::string serialize_head() const;

  bool keep_alive() const;

  static Response make(int status, std::string_view reason,
                       std::string body = {},
                       std::string_view content_type = "text/plain");
};

/// Standard reason phrase for common status codes ("OK", "Not Found", ...).
std::string_view default_reason(int status);

}  // namespace spi::http
