#include "http/client.hpp"

#include "common/logging.hpp"

namespace spi::http {

HttpClient::HttpClient(net::Transport& transport, net::Endpoint server,
                       ClientOptions options)
    : transport_(transport),
      server_(std::move(server)),
      options_(std::move(options)),
      receive_timeout_(options_.receive_timeout) {}

HttpClient::~HttpClient() = default;

void HttpClient::disconnect() { pooled_.reset(); }

Result<std::unique_ptr<net::Connection>> HttpClient::obtain_connection() {
  if (options_.keep_alive && pooled_) {
    // Re-apply the timeout: a deadline-aware caller may have changed it
    // since the connection was pooled.
    if (!is_unbounded(receive_timeout_)) {
      if (Status set = pooled_->set_receive_timeout(receive_timeout_);
          !set.ok()) {
        return set.error().wrap("http receive timeout");
      }
    }
    return std::move(pooled_);
  }
  auto connection = transport_.connect(server_);
  if (!connection.ok()) {
    return connection.wrap_error("http connect");
  }
  if (!is_unbounded(receive_timeout_)) {
    if (Status set =
            connection.value()->set_receive_timeout(receive_timeout_);
        !set.ok()) {
      return set.error().wrap("http receive timeout");
    }
  }
  return std::move(connection).value();
}

Result<Response> HttpClient::send(Request request) {
  request.headers.set("Host", options_.host);
  if (!options_.keep_alive) {
    request.headers.set("Connection", "close");
  }

  auto connection = obtain_connection();
  if (!connection.ok()) return connection.error();
  std::unique_ptr<net::Connection> conn = std::move(connection).value();

  // The whole message goes out in one send() so the simulated link charges
  // exactly one per-message overhead — mirroring one HTTP POST.
  std::string wire =
      options_.chunked_request_bytes > 0
          ? request.serialize_chunked(options_.chunked_request_bytes)
          : request.serialize();
  if (Status sent = conn->send(wire); !sent.ok()) {
    return sent.error().wrap("http send");
  }

  MessageParser parser(MessageParser::Mode::kResponse, options_.limits);
  while (true) {
    if (auto response = parser.poll_response()) {
      bool reusable = options_.keep_alive && response->keep_alive() &&
                      request.keep_alive();
      if (reusable) {
        pooled_ = std::move(conn);
      } else {
        conn->close();
      }
      return std::move(*response);
    }
    if (parser.failed()) return parser.error();

    auto bytes = conn->receive(net::kReceiveChunk);
    if (!bytes.ok()) {
      return bytes.wrap_error("http receive");
    }
    parser.feed(bytes.value());
  }
}

Result<Response> HttpClient::post(std::string_view target, std::string body,
                                  std::string_view content_type,
                                  const Headers* extra_headers) {
  Request request;
  request.method = "POST";
  request.target = std::string(target);
  request.body = std::move(body);
  if (extra_headers) request.headers = *extra_headers;
  request.headers.set("Content-Type", content_type);
  return send(std::move(request));
}

}  // namespace spi::http
