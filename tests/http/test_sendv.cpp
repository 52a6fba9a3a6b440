// Vectored-send path of the reactor driver (DESIGN.md §13), driven through
// a wrapper transport whose connections accept only a few bytes per
// try_sendv call and periodically report kWouldBlock. That forces the
// ReactorConn iovec outbox through every edge it has: partial writes that
// end mid-segment (cursor advancement in place), write-interest re-arming
// after synthetic backpressure, pipelined-response ordering across many
// short gathers, and the sendv_batches/sendv_segments proof counters.
// Plus: a connection with no native gather, written through the base
// Connection::try_sendv one segment at a time.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "http/client.hpp"
#include "http/server.hpp"
#include "net/tcp_transport.hpp"

namespace spi::http {
namespace {

/// Delegates everything to a real TCP connection, but clamps each write
/// to `cap` bytes and answers kWouldBlock on every block_every-th gather
/// (0 = never). With `gathers` false it has no gather of its own: the base
/// Connection::try_sendv sends one segment per call through try_send. With a level-triggered poller the
/// socket stays writable, so each synthetic kWouldBlock exercises the
/// arm-write-interest / retry-on-readiness cycle without stalling.
class ShortWriteConnection : public net::Connection {
 public:
  struct Counters {
    std::atomic<std::uint64_t> sendv_calls{0};
    std::atomic<std::uint64_t> send_calls{0};
    std::atomic<std::uint64_t> synthetic_blocks{0};
  };

  ShortWriteConnection(std::unique_ptr<net::Connection> inner, size_t cap,
                       int block_every, bool gathers, Counters& counters)
      : inner_(std::move(inner)),
        cap_(cap),
        block_every_(block_every),
        gathers_(gathers),
        counters_(counters) {}

  Status send(std::string_view bytes) override { return inner_->send(bytes); }
  Result<std::string> receive(size_t max_bytes) override {
    return inner_->receive(max_bytes);
  }
  Status set_receive_timeout(Duration timeout) override {
    return inner_->set_receive_timeout(timeout);
  }
  void close() override { inner_->close(); }
  void abort() override { inner_->abort(); }
  int native_handle() const override { return inner_->native_handle(); }
  Status set_nonblocking(bool enabled) override {
    return inner_->set_nonblocking(enabled);
  }
  Result<std::string> try_receive(size_t max_bytes) override {
    return inner_->try_receive(max_bytes);
  }
  Result<size_t> try_send(std::string_view bytes) override {
    counters_.send_calls.fetch_add(1, std::memory_order_relaxed);
    return inner_->try_send(bytes.substr(0, cap_));
  }

  Result<size_t> try_sendv(const net::ConstBuffer* segments,
                           size_t count) override {
    if (!gathers_) return net::Connection::try_sendv(segments, count);
    const auto call =
        counters_.sendv_calls.fetch_add(1, std::memory_order_relaxed) + 1;
    if (block_every_ > 0 && call % block_every_ == 0) {
      counters_.synthetic_blocks.fetch_add(1, std::memory_order_relaxed);
      return Error(ErrorCode::kWouldBlock, "synthetic backpressure");
    }
    // Clamp the gather to cap_ bytes, possibly truncating mid-segment, so
    // the caller must resume from an offset inside a segment.
    std::vector<net::ConstBuffer> clamped;
    size_t budget = cap_;
    for (size_t i = 0; i < count && budget > 0; ++i) {
      net::ConstBuffer segment = segments[i];
      segment.size = std::min(segment.size, budget);
      budget -= segment.size;
      clamped.push_back(segment);
    }
    return inner_->try_sendv(clamped.data(), clamped.size());
  }

 private:
  std::unique_ptr<net::Connection> inner_;
  const size_t cap_;
  const int block_every_;
  const bool gathers_;
  Counters& counters_;
};

class ShortWriteTransport : public net::Transport {
 public:
  struct Config {
    size_t cap = 7;
    int block_every = 0;
    bool gathers = true;
  };

  explicit ShortWriteTransport(Config config) : config_(config) {}

  Result<std::unique_ptr<net::Listener>> listen(
      const net::Endpoint& at) override {
    auto inner = tcp_.listen(at);
    if (!inner.ok()) return inner.error();
    return Result<std::unique_ptr<net::Listener>>(
        std::make_unique<WrappingListener>(std::move(inner.value()), *this));
  }
  Result<std::unique_ptr<net::Connection>> connect(
      const net::Endpoint& to) override {
    return tcp_.connect(to);
  }
  net::WireStats stats() const override { return tcp_.stats(); }
  void reset_stats() override { tcp_.reset_stats(); }

  ShortWriteConnection::Counters counters;

 private:
  class WrappingListener : public net::Listener {
   public:
    WrappingListener(std::unique_ptr<net::Listener> inner,
                     ShortWriteTransport& owner)
        : inner_(std::move(inner)), owner_(owner) {}

    Result<std::unique_ptr<net::Connection>> accept() override {
      return wrap(inner_->accept());
    }
    Result<std::unique_ptr<net::Connection>> try_accept() override {
      return wrap(inner_->try_accept());
    }
    void close() override { inner_->close(); }
    net::Endpoint endpoint() const override { return inner_->endpoint(); }
    int native_handle() const override { return inner_->native_handle(); }
    Status set_nonblocking(bool enabled) override {
      return inner_->set_nonblocking(enabled);
    }

   private:
    Result<std::unique_ptr<net::Connection>> wrap(
        Result<std::unique_ptr<net::Connection>> accepted) {
      if (!accepted.ok()) return accepted.error();
      return Result<std::unique_ptr<net::Connection>>(
          std::make_unique<ShortWriteConnection>(
              std::move(accepted.value()), owner_.config_.cap,
              owner_.config_.block_every, owner_.config_.gathers,
              owner_.counters));
    }

    std::unique_ptr<net::Listener> inner_;
    ShortWriteTransport& owner_;
  };

  Config config_;
  net::TcpTransport tcp_;
};

Response echo_handler(const Request& request) {
  return Response::make(200, "OK", "echo:" + request.body);
}

std::unique_ptr<HttpServer> make_server(net::Transport& transport,
                                        ServerOptions options = {}) {
  auto server = std::make_unique<HttpServer>(
      transport, net::Endpoint{"127.0.0.1", 0}, echo_handler, options);
  EXPECT_TRUE(server->start().ok());
  EXPECT_TRUE(server->reactor_mode());
  return server;
}

// Receives until `count` complete responses have been framed.
std::vector<Response> receive_responses(net::Connection& connection,
                                        size_t count) {
  MessageParser parser(MessageParser::Mode::kResponse);
  std::vector<Response> responses;
  while (responses.size() < count) {
    if (auto response = parser.poll_response()) {
      responses.push_back(std::move(*response));
      continue;
    }
    if (parser.failed()) break;
    auto chunk = connection.receive(4096);
    if (!chunk.ok()) break;
    parser.feed(chunk.value());
  }
  return responses;
}

TEST(SendvTest, LargeResponseSurvivesShortVectoredWrites) {
  // 61-byte gathers against a multi-kilobyte response: nearly every write
  // ends mid-segment, so delivery proves the iovec cursor advances
  // correctly both across and inside segments.
  ShortWriteTransport transport({.cap = 61, .block_every = 0});
  auto server = make_server(transport);

  std::string body(8 * 1024, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>('a' + (i % 26));
  }
  net::TcpTransport client_side;
  HttpClient client(client_side, server->endpoint());
  auto response = client.post("/svc", body);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().body, "echo:" + body);

  // The loop counts a gather only after try_sendv returns, so the client
  // can hold the whole response before the last write is counted. Stopping
  // the server joins the loop thread; the loop stats outlive stop().
  server->stop();

  // The response needed many short gathers, and both of its segments
  // (head + body) retired through the vectored path.
  EXPECT_GT(server->sendv_batches(), body.size() / 61 / 2);
  EXPECT_GE(server->sendv_segments(), 2u);
  EXPECT_GE(server->loop_snapshot(0).bytes_written, body.size());
}

TEST(SendvTest, SyntheticWouldBlockRearmsWriteInterest) {
  // Every other gather reports kWouldBlock without writing: the connection
  // must arm write interest and resume on the next readiness event, every
  // time, or the response never finishes.
  ShortWriteTransport transport({.cap = 97, .block_every = 2});
  auto server = make_server(transport);

  std::string body(4 * 1024, 'x');
  net::TcpTransport client_side;
  HttpClient client(client_side, server->endpoint());
  auto response = client.post("/svc", body);
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().body, "echo:" + body);
  EXPECT_GE(transport.counters.synthetic_blocks.load(), 1u);
}

TEST(SendvTest, PipelinedResponsesStayOrderedUnderShortWrites) {
  // Two requests land before any response bytes move; with short gathers
  // the second response is queued while the first is still mid-flight, so
  // ordering proves the outbox appends and the completion marks fire in
  // FIFO order.
  ShortWriteTransport transport({.cap = 31, .block_every = 3});
  auto server = make_server(transport);

  net::TcpTransport client_side;
  auto connection = client_side.connect(server->endpoint());
  ASSERT_TRUE(connection.ok());
  Request a, b;
  a.target = b.target = "/svc";
  a.body = std::string(512, 'A');
  b.body = std::string(512, 'B');
  ASSERT_TRUE(connection.value()->send(a.serialize() + b.serialize()).ok());
  auto responses = receive_responses(*connection.value(), 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "echo:" + a.body);
  EXPECT_EQ(responses[1].body, "echo:" + b.body);
  EXPECT_EQ(server->requests_served(), 2u);
}

TEST(SendvTest, NonGatheringTransportWritesThroughBaseTrySendv) {
  // No gather of its own: the outbox's try_sendv lands in the base
  // Connection::try_sendv, which sends only the first segment, through
  // try_send, capped at 53 bytes. Two pipelined responses must still come
  // back intact and in order.
  ShortWriteTransport transport({.cap = 53, .block_every = 0,
                                 .gathers = false});
  auto server = make_server(transport);

  net::TcpTransport client_side;
  auto connection = client_side.connect(server->endpoint());
  ASSERT_TRUE(connection.ok());
  Request a, b;
  a.target = b.target = "/svc";
  a.body = std::string(2 * 1024, 'y');
  b.body = std::string(1024, 'z');
  ASSERT_TRUE(connection.value()->send(a.serialize() + b.serialize()).ok());
  auto responses = receive_responses(*connection.value(), 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "echo:" + a.body);
  EXPECT_EQ(responses[1].body, "echo:" + b.body);

  server->stop();
  // Every write was one segment's try_send, at most 53 bytes each.
  EXPECT_EQ(transport.counters.sendv_calls.load(), 0u);
  EXPECT_GT(server->sendv_batches(), (a.body.size() + b.body.size()) / 53);
  EXPECT_LE(server->sendv_batches(), transport.counters.send_calls.load());
}

}  // namespace
}  // namespace spi::http
