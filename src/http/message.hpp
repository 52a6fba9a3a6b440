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
#include "common/gathered.hpp"

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
  /// The body, or with splices the framing they go into.
  std::string body;
  /// Bytes of the body left where they lie (common/gathered.hpp), each
  /// going in before body[offset]. Only set_body() adds them, so a
  /// received message has none. Sizes, serializers and take_wire_pieces()
  /// count them.
  std::vector<Splice> splices;

  /// Carries `gathered` as the body, its splices uncopied.
  void set_body(Gathered gathered);

  /// Body bytes on the wire: body plus splices.
  size_t body_size() const;

  /// Full wire form, splices copied in. Sets Content-Length from the body
  /// (overriding any stale value) and Host if absent.
  std::string serialize() const;

  /// Wire form of everything before the body: request line, headers (with
  /// Content-Length and Host as serialize() sets them), terminating blank
  /// line.
  std::string serialize_head() const;

  /// The wire form as shared pieces, in order and none empty: the head,
  /// then the body as Gathered::wire_pieces() cuts it. The body and
  /// splices are moved out, never copied; the async client queues the
  /// pieces as one gather.
  std::vector<SharedBytes> take_wire_pieces();

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
  /// As Request::body and Request::splices.
  std::string body;
  std::vector<Splice> splices;

  void set_body(Gathered gathered);
  size_t body_size() const;

  std::string serialize() const;

  /// Wire form of everything before the body: status line, headers (with
  /// Content-Length set from body_size()), terminating blank line.
  std::string serialize_head() const;

  /// As Request::take_wire_pieces(): the vectored send path puts the
  /// pieces on the wire as iovec segments (DESIGN.md §13).
  std::vector<SharedBytes> take_wire_pieces();

  bool keep_alive() const;

  static Response make(int status, std::string_view reason,
                       std::string body = {},
                       std::string_view content_type = "text/plain");
  /// make() with a gathered body, its splices uncopied.
  static Response make(int status, std::string_view reason, Gathered body,
                       std::string_view content_type);
};

/// Standard reason phrase for common status codes ("OK", "Not Found", ...).
std::string_view default_reason(int status);

}  // namespace spi::http
