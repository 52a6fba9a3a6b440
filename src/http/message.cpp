#include "http/message.hpp"

#include "common/string_util.hpp"

namespace spi::http {

void Headers::set(std::string_view name, std::string_view value) {
  remove(name);
  add(name, value);
}

void Headers::add(std::string_view name, std::string_view value) {
  entries_.emplace_back(std::string(name), std::string(value));
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& [key, value] : entries_) {
    if (iequals(key, name)) return std::string_view(value);
  }
  return std::nullopt;
}

std::vector<std::string_view> Headers::get_all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& [key, value] : entries_) {
    if (iequals(key, name)) out.emplace_back(value);
  }
  return out;
}

void Headers::remove(std::string_view name) {
  std::erase_if(entries_,
                [&](const auto& entry) { return iequals(entry.first, name); });
}

void Headers::serialize(std::string& out) const {
  for (const auto& [key, value] : entries_) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
}

namespace {
bool message_keep_alive(const Headers& headers) {
  auto connection = headers.get("Connection");
  if (!connection) return true;  // HTTP/1.1 default: persistent
  for (std::string_view token : split_trimmed(*connection, ',')) {
    if (iequals(token, "close")) return false;
  }
  return true;
}

/// Request line, headers (Content-Length from the body, Host if absent)
/// and the blank line, appended to `out`.
void append_request_head(const Request& request, std::string& out) {
  out += request.method;
  out += ' ';
  out += request.target;
  out += " HTTP/1.1\r\n";
  Headers effective = request.headers;
  effective.set("Content-Length", [&] {
    std::string n;
    append_u64(n, request.body_size());
    return n;
  }());
  if (!effective.contains("Host")) effective.set("Host", "localhost");
  effective.serialize(out);
  out += "\r\n";
}

/// `head` then the body's pieces; body and splices are moved out.
std::vector<SharedBytes> wire_pieces(std::string head, std::string& body,
                                     std::vector<Splice>& splices) {
  std::vector<SharedBytes> pieces =
      Gathered(std::move(body), std::move(splices))
          .wire_pieces(std::move(head));
  body.clear();
  splices.clear();
  return pieces;
}
}  // namespace

void Request::set_body(Gathered gathered) {
  std::move(gathered).release(body, splices);
}

size_t Request::body_size() const {
  return body.size() + spliced_size(splices);
}

std::string Request::serialize() const {
  std::string out;
  out.reserve(method.size() + target.size() + body_size() + 128);
  append_request_head(*this, out);
  append_flat(out, body, splices);
  return out;
}

std::vector<SharedBytes> Request::take_wire_pieces() {
  return wire_pieces(serialize_head(), body, splices);
}

std::string Request::serialize_head() const {
  std::string out;
  out.reserve(method.size() + target.size() + 128);
  append_request_head(*this, out);
  return out;
}

bool Request::keep_alive() const { return message_keep_alive(headers); }

std::string Request::serialize_chunked(size_t chunk_bytes) const {
  if (chunk_bytes == 0) chunk_bytes = 4096;
  std::string flat;
  if (!splices.empty()) append_flat(flat, body, splices);
  const std::string& bytes = splices.empty() ? body : flat;
  std::string out;
  out.reserve(method.size() + target.size() + bytes.size() +
              bytes.size() / chunk_bytes * 8 + 160);
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\n";
  Headers effective = headers;
  effective.remove("Content-Length");
  effective.set("Transfer-Encoding", "chunked");
  if (!effective.contains("Host")) effective.set("Host", "localhost");
  effective.serialize(out);
  out += "\r\n";
  for (size_t offset = 0; offset < bytes.size(); offset += chunk_bytes) {
    size_t n = std::min(chunk_bytes, bytes.size() - offset);
    char size_line[20];
    int written = std::snprintf(size_line, sizeof(size_line), "%zx\r\n", n);
    out.append(size_line, static_cast<size_t>(written));
    out.append(bytes, offset, n);
    out += "\r\n";
  }
  out += "0\r\n\r\n";
  return out;
}

std::string Response::serialize_head() const {
  std::string out;
  out.reserve(128);
  out += "HTTP/1.1 ";
  append_u64(out, static_cast<std::uint64_t>(status));
  out += ' ';
  out += reason.empty() ? std::string(default_reason(status)) : reason;
  out += "\r\n";
  Headers effective = headers;
  effective.set("Content-Length", [&] {
    std::string n;
    append_u64(n, body_size());
    return n;
  }());
  effective.serialize(out);
  out += "\r\n";
  return out;
}

void Response::set_body(Gathered gathered) {
  std::move(gathered).release(body, splices);
}

size_t Response::body_size() const {
  return body.size() + spliced_size(splices);
}

std::string Response::serialize() const {
  std::string out = serialize_head();
  append_flat(out, body, splices);
  return out;
}

std::vector<SharedBytes> Response::take_wire_pieces() {
  return wire_pieces(serialize_head(), body, splices);
}

bool Response::keep_alive() const { return message_keep_alive(headers); }

Response Response::make(int status, std::string_view reason, std::string body,
                        std::string_view content_type) {
  Response response;
  response.status = status;
  response.reason = std::string(reason);
  response.body = std::move(body);
  if (!response.body.empty()) {
    response.headers.set("Content-Type", content_type);
  }
  return response;
}

Response Response::make(int status, std::string_view reason, Gathered body,
                        std::string_view content_type) {
  Response response = make(status, reason, std::string(), content_type);
  if (!body.empty()) response.headers.set("Content-Type", content_type);
  response.set_body(std::move(body));
  return response;
}

std::string_view default_reason(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 415: return "Unsupported Media Type";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

}  // namespace spi::http
