// AsyncHttpClient (DESIGN.md §16) over real TCP sockets: non-blocking
// connect through completion, pipelined in-order response matching on ONE
// pooled connection, wheel-timer attempt expiry against a peer that never
// answers, and cancel/drain returning the loser's connection to the pool.
// Plus the wire form of the segmented send (the head, then the body's
// framing and spliced strings): exact bytes, resumption after short
// writes, and the unwritten-tail prune.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/async_client.hpp"
#include "http/server.hpp"
#include "net/tcp_transport.hpp"

namespace spi::http {
namespace {

using namespace std::chrono_literals;

Response echo_handler(const Request& request) {
  return Response::make(200, "OK", "echo:" + request.body);
}

class AsyncClientTest : public ::testing::Test {
 protected:
  void SetUp() override { reactor_.start(); }

  std::unique_ptr<HttpServer> make_server(ServerOptions options = {}) {
    auto server = std::make_unique<HttpServer>(
        transport_, net::Endpoint{"127.0.0.1", 0}, echo_handler, options);
    EXPECT_TRUE(server->start().ok());
    return server;
  }

  static Request post(std::string body) {
    Request request;
    request.method = "POST";
    request.target = "/svc";
    request.body = std::move(body);
    return request;
  }

  net::TcpTransport transport_;
  Reactor reactor_;
};

TEST_F(AsyncClientTest, RoundTripAndKeepAliveReuse) {
  auto server = make_server();
  AsyncHttpClient client(reactor_, transport_);

  auto first = client.send_future(server->endpoint(), post("one"), 5s).get();
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value().status, 200);
  EXPECT_EQ(first.value().body, "echo:one");

  auto second = client.send_future(server->endpoint(), post("two"), 5s).get();
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value().body, "echo:two");

  auto stats = client.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.responses, 2u);
  // The second exchange rode the first one's warm connection.
  EXPECT_EQ(stats.connects_started, 1u);
  EXPECT_GE(stats.reused, 1u);
}

TEST_F(AsyncClientTest, ManyConcurrentExchangesFromOneLoopThread) {
  auto server = make_server();
  AsyncHttpClient client(reactor_, transport_);

  constexpr int kN = 64;
  std::vector<std::future<Result<Response>>> futures;
  futures.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    futures.push_back(client.send_future(server->endpoint(),
                                         post(std::to_string(i)), 10s));
  }
  for (int i = 0; i < kN; ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().body, "echo:" + std::to_string(i));
  }
  EXPECT_EQ(client.inflight(), 0u);
}

// The satellite case: several exchanges multiplexed onto ONE connection
// with bounded pipelining; HTTP/1.1 answers in write order, and each
// response must land on ITS request even though they share the socket.
TEST_F(AsyncClientTest, PipelinedResponsesMatchRequestsInOrderOnOneConnection) {
  auto server = make_server();
  AsyncClientOptions options;
  options.max_connections_per_endpoint = 1;
  options.max_pipeline_depth = 8;
  AsyncHttpClient client(reactor_, transport_, options);

  constexpr int kN = 24;
  std::vector<std::future<Result<Response>>> futures;
  futures.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    futures.push_back(client.send_future(server->endpoint(),
                                         post("req-" + std::to_string(i)),
                                         10s));
  }
  for (int i = 0; i < kN; ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().body, "echo:req-" + std::to_string(i));
  }

  auto stats = client.stats();
  // One endpoint, a hard cap of one connection: everything multiplexed.
  EXPECT_EQ(stats.connects_started, 1u);
  EXPECT_GE(stats.pipelined, 1u);
}

// The attempt deadline lives on the reactor's timer wheel, so it fires
// even though the socket never becomes readable (no blocked receive, no
// per-socket timeout).
TEST_F(AsyncClientTest, TimerWheelExpiresAttemptAgainstSilentPeer) {
  auto listener = transport_.listen(net::Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<net::Connection>> held;
  std::mutex held_mutex;
  std::thread acceptor([&] {
    while (!stop.load()) {
      auto connection = listener.value()->accept();
      if (!connection.ok()) break;
      // Accept, read nothing, answer nothing: the peer that hangs.
      std::lock_guard lock(held_mutex);
      held.push_back(std::move(connection).value());
    }
  });

  AsyncHttpClient client(reactor_, transport_);
  auto result =
      client.send_future(listener.value()->endpoint(), post("hello"), 100ms)
          .get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(client.inflight(), 0u);

  stop.store(true);
  listener.value()->close();
  acceptor.join();
}

// cancel() must not burn the connection: the stale response is drained
// off the wire and the connection rejoins the pool for the next exchange
// (how a hedge loser releases its connection).
TEST_F(AsyncClientTest, CancelDrainsStaleResponseAndReturnsConnectionToPool) {
  ServerOptions slow_options;
  auto server = std::make_unique<HttpServer>(
      transport_, net::Endpoint{"127.0.0.1", 0},
      [](const Request& request) {
        std::this_thread::sleep_for(50ms);
        return Response::make(200, "OK", "late:" + request.body);
      },
      slow_options);
  ASSERT_TRUE(server->start().ok());

  AsyncClientOptions options;
  options.max_connections_per_endpoint = 1;
  AsyncHttpClient client(reactor_, transport_, options);

  std::promise<Result<Response>> cancelled;
  auto cancelled_future = cancelled.get_future();
  AsyncHttpClient::RequestId id = client.send(
      server->endpoint(), post("victim"), 5s,
      [&cancelled](Result<Response> r) { cancelled.set_value(std::move(r)); });
  // Let the request reach the wire before abandoning it.
  std::this_thread::sleep_for(10ms);
  client.cancel(id);

  auto result = cancelled_future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCancelled);
  EXPECT_GE(client.stats().cancelled, 1u);

  // The stale response drains and the connection comes back idle.
  for (int i = 0; i < 200 && client.idle_connections(server->endpoint()) == 0;
       ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(client.idle_connections(server->endpoint()), 1u);
  EXPECT_GE(client.stats().drained, 1u);

  // And the NEXT exchange reuses it instead of dialing.
  auto followup =
      client.send_future(server->endpoint(), post("after"), 5s).get();
  ASSERT_TRUE(followup.ok()) << followup.error().to_string();
  EXPECT_EQ(followup.value().body, "late:after");
  auto stats = client.stats();
  EXPECT_EQ(stats.connects_started, 1u);
  EXPECT_GE(stats.reused, 1u);
}

// --- segmented sends: the bytes on the wire --------------------------------

/// Client-side transport over TCP whose dials always report pending, so a
/// task running in the same reactor drain as the send sees the exchange
/// before any byte can be written. Its connections can also cut the FIRST
/// send call short at `first_write_cap` bytes (mid-head or mid-body) and
/// then refuse every later call while `hold` is set.
class GatedTransport : public net::Transport {
 public:
  struct Gate {
    std::atomic<size_t> first_write_cap{std::numeric_limits<size_t>::max()};
    std::atomic<bool> hold{false};
    std::atomic<size_t> send_calls{0};
    std::promise<void> first_write;
  };

  Result<std::unique_ptr<net::Listener>> listen(
      const net::Endpoint& at) override {
    return tcp_.listen(at);
  }
  Result<std::unique_ptr<net::Connection>> connect(
      const net::Endpoint& to) override {
    return tcp_.connect(to);
  }
  bool supports_nonblocking_connect() const override { return true; }
  Result<net::AsyncConnect> connect_nonblocking(
      const net::Endpoint& to) override {
    auto dial = tcp_.connect_nonblocking(to);
    if (!dial.ok()) return dial.error();
    net::AsyncConnect out;
    out.connection = std::make_unique<GatedConnection>(
        std::move(dial.value().connection), gate);
    out.pending = true;
    return out;
  }
  net::WireStats stats() const override { return tcp_.stats(); }
  void reset_stats() override { tcp_.reset_stats(); }

  Gate gate;

 private:
  class GatedConnection : public net::Connection {
   public:
    GatedConnection(std::unique_ptr<net::Connection> inner, Gate& gate)
        : inner_(std::move(inner)), gate_(gate) {}

    Status send(std::string_view bytes) override {
      return inner_->send(bytes);
    }
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
    Status finish_connect() override { return inner_->finish_connect(); }
    Result<std::string> try_receive(size_t max_bytes) override {
      return inner_->try_receive(max_bytes);
    }
    Result<size_t> try_send(std::string_view bytes) override {
      net::ConstBuffer segment{bytes.data(), bytes.size()};
      return try_sendv(&segment, 1);
    }
    bool supports_sendv() const override { return inner_->supports_sendv(); }
    Result<size_t> try_sendv(const net::ConstBuffer* segments,
                             size_t count) override {
      const size_t call = gate_.send_calls.fetch_add(1);
      if (call > 0 && gate_.hold.load()) {
        return Error(ErrorCode::kWouldBlock, "held by the test");
      }
      size_t budget = call == 0 ? gate_.first_write_cap.load()
                                : std::numeric_limits<size_t>::max();
      std::vector<net::ConstBuffer> clamped;
      for (size_t i = 0; i < count && budget > 0; ++i) {
        net::ConstBuffer segment = segments[i];
        segment.size = std::min(segment.size, budget);
        budget -= segment.size;
        clamped.push_back(segment);
      }
      auto sent = inner_->try_sendv(clamped.data(), clamped.size());
      if (call == 0) gate_.first_write.set_value();
      return sent;
    }

   private:
    std::unique_ptr<net::Connection> inner_;
    Gate& gate_;
  };

  net::TcpTransport tcp_;
};

/// A body whose bytes differ from offset to offset (a running count), so a
/// resume at the wrong byte cannot reproduce the expected wire by chance.
std::string numbered(size_t size) {
  std::string body;
  for (size_t i = 0; body.size() < size; ++i) {
    body += std::to_string(i);
    body += ',';
  }
  body.resize(size);
  return body;
}

class AsyncClientWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reactor_.start();
    auto listener = tcp_.listen(net::Endpoint{"127.0.0.1", 0});
    ASSERT_TRUE(listener.ok()) << listener.error().to_string();
    listener_ = std::move(listener).value();
  }

  /// The peer end of the client's one connection (accepted on first use).
  net::Connection& peer() {
    if (!peer_) {
      auto accepted = listener_->accept();
      EXPECT_TRUE(accepted.ok()) << accepted.error().to_string();
      peer_ = std::move(accepted).value();
      EXPECT_TRUE(peer_->set_receive_timeout(5s).ok());
    }
    return *peer_;
  }

  /// Reads exactly `n` bytes off the peer end (fewer on timeout or EOF).
  std::string read_wire(size_t n) {
    std::string wire;
    while (wire.size() < n) {
      auto chunk = peer().receive(n - wire.size());
      if (!chunk.ok()) break;
      wire += chunk.value();
    }
    return wire;
  }

  static Request post(std::string body) {
    Request request;
    request.method = "POST";
    request.target = "/svc";
    request.headers.set("Host", "wire.test");
    request.headers.set("SOAPAction", "\"\"");
    request.body = std::move(body);
    return request;
  }

  static AsyncClientOptions one_pipelined_connection() {
    AsyncClientOptions options;
    options.max_connections_per_endpoint = 1;
    options.max_pipeline_depth = 8;
    return options;
  }

  /// Starts an exchange whose completion lands in `result`.
  AsyncHttpClient::RequestId send(AsyncHttpClient& client, Request request,
                                  std::promise<Result<Response>>& result) {
    return client.send(listener_->endpoint(), std::move(request), 5s,
                       [&result](Result<Response> r) {
                         result.set_value(std::move(r));
                       });
  }

  static void expect_cancelled(std::promise<Result<Response>>& result) {
    auto future = result.get_future();
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    auto r = future.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::kCancelled);
  }

  net::TcpTransport tcp_;
  Reactor reactor_;
  std::unique_ptr<net::Listener> listener_;
  std::unique_ptr<net::Connection> peer_;
};

TEST_F(AsyncClientWireTest, SingleRequestWireEqualsSerialize) {
  AsyncHttpClient client(reactor_, tcp_);
  Request request = post(numbered(70000));
  const std::string expected = request.serialize();
  client.send(listener_->endpoint(), std::move(request), 5s, nullptr);
  EXPECT_EQ(read_wire(expected.size()), expected);
}

TEST_F(AsyncClientWireTest, PipelinedRequestsWireEqualsSerializeInOrder) {
  AsyncHttpClient client(reactor_, tcp_, one_pipelined_connection());
  std::string expected;
  for (size_t size : {1u, 4096u, 0u, 150000u, 17u}) {
    Request request = post(numbered(size));
    expected += request.serialize();
    client.send(listener_->endpoint(), std::move(request), 5s, nullptr);
  }
  EXPECT_EQ(read_wire(expected.size()), expected);
}

TEST_F(AsyncClientWireTest, EmptyBodyWireEqualsSerialize) {
  AsyncHttpClient client(reactor_, tcp_);
  Request request = post("");
  const std::string expected = request.serialize();
  ASSERT_EQ(expected, request.serialize_head());
  client.send(listener_->endpoint(), std::move(request), 5s, nullptr);
  EXPECT_EQ(read_wire(expected.size()), expected);
}

// A send the kernel accepts only in part must resume at the right byte,
// whether the cut falls inside the head or inside the body.
TEST_F(AsyncClientWireTest, ShortFirstWriteResumesAtTheRightByte) {
  const Request request = post(numbered(5000));
  const std::string expected = request.serialize();
  const size_t head = request.serialize_head().size();
  for (size_t cut : {size_t{9}, head - 1, head, head + 1, head + 2500}) {
    SCOPED_TRACE("first write cut at byte " + std::to_string(cut));
    GatedTransport transport;
    transport.gate.first_write_cap = cut;
    {
      AsyncHttpClient client(reactor_, transport);
      client.send(listener_->endpoint(), request, 5s, nullptr);
      EXPECT_EQ(read_wire(expected.size()), expected);
      EXPECT_GE(transport.gate.send_calls.load(), 2u);
    }
    peer_.reset();
  }
}

// Cancelled before the dial completes, an exchange is pruned from the
// outbox with BOTH its segments: nothing of it ever reaches the wire.
// Earlier exchanges in the same pipeline keep theirs.
TEST_F(AsyncClientWireTest, CancelBeforeDialPrunesBothSegmentsOfTheTail) {
  GatedTransport transport;
  // Declared before the client: its shutdown answers `kept`.
  std::promise<Result<Response>> lone, kept, tail;
  AsyncHttpClient client(reactor_, transport, one_pipelined_connection());
  const Request first = post(numbered(300));
  // One reactor drain: nothing can be written in between, the dial is
  // still pending when each cancel lands.
  reactor_.run_sync([&] {
    client.cancel(send(client, post("never sent"), lone));
    send(client, first, kept);
    client.cancel(send(client, post(numbered(2000)), tail));
  });
  expect_cancelled(lone);
  expect_cancelled(tail);

  const Request follow_up = post("after");
  client.send(listener_->endpoint(), follow_up, 5s, nullptr);
  const std::string expected = first.serialize() + follow_up.serialize();
  EXPECT_EQ(read_wire(expected.size()), expected);
}

/// `request` with a body that carries `owners`' strings as splices
/// (common/gathered.hpp): only the framing between them is in the
/// request; the strings stay where they are, shared.
Request with_gathered_body(
    Request request,
    const std::vector<std::shared_ptr<const std::string>>& owners) {
  std::string framing = "<r>";
  std::vector<Splice> splices;
  for (const auto& owner : owners) {
    framing += "<s>";
    splices.push_back(Splice{framing.size(), SharedBytes{owner, *owner}});
    framing += "</s>";
  }
  framing += "</r>";
  request.set_body(Gathered(std::move(framing), std::move(splices)));
  return request;
}

std::vector<std::shared_ptr<const std::string>> spliced_strings() {
  std::vector<std::shared_ptr<const std::string>> owners;
  for (size_t size : {size_t{20000}, size_t{70001}, size_t{33}}) {
    owners.push_back(std::make_shared<const std::string>(numbered(size)));
  }
  return owners;
}

TEST_F(AsyncClientWireTest, GatheredBodyWireEqualsSerialize) {
  AsyncHttpClient client(reactor_, tcp_, one_pipelined_connection());
  const auto owners = spliced_strings();
  Request request = with_gathered_body(post(""), owners);
  ASSERT_EQ(request.splices.size(), 3u);
  const std::string expected = request.serialize() + post("after").serialize();
  client.send(listener_->endpoint(), std::move(request), 5s, nullptr);
  client.send(listener_->endpoint(), post("after"), 5s, nullptr);
  EXPECT_EQ(read_wire(expected.size()), expected);
}

// A gathered tail cancelled before the dial completes is pruned with all
// of its segments, and dropping them lets go of the spliced strings.
TEST_F(AsyncClientWireTest, CancelBeforeDialPrunesEverySegmentOfAGatheredTail) {
  GatedTransport transport;
  std::promise<Result<Response>> kept, tail;
  AsyncHttpClient client(reactor_, transport, one_pipelined_connection());
  const auto owners = spliced_strings();
  const Request first = post(numbered(300));
  reactor_.run_sync([&] {
    send(client, first, kept);
    client.cancel(send(client, with_gathered_body(post(""), owners), tail));
  });
  expect_cancelled(tail);
  // The callback fires before the prune finishes: wait for the loop task.
  reactor_.run_sync([] {});
  for (const auto& owner : owners) EXPECT_EQ(owner.use_count(), 1);

  const Request follow_up = post("after");
  client.send(listener_->endpoint(), follow_up, 5s, nullptr);
  const std::string expected = first.serialize() + follow_up.serialize();
  EXPECT_EQ(read_wire(expected.size()), expected);
}

// Once any byte of an exchange has left the process it must be written in
// full, cancelled or not: pruning its remaining segments would leave a
// torn request on the wire. An exchange queued behind it whose bytes have
// not been written is still pruned on its own, both segments.
TEST_F(AsyncClientWireTest, PartlyWrittenExchangeIsNeverPruned) {
  const Request torn = post(numbered(4000));
  const size_t head = torn.serialize_head().size();
  for (size_t cut : {size_t{12}, head + 100}) {
    SCOPED_TRACE("first write cut at byte " + std::to_string(cut));
    GatedTransport transport;
    transport.gate.first_write_cap = cut;
    transport.gate.hold = true;
    {
      std::promise<Result<Response>> first, behind;
      AsyncHttpClient client(reactor_, transport, one_pipelined_connection());
      AsyncHttpClient::RequestId first_id = send(client, torn, first);
      ASSERT_EQ(transport.gate.first_write.get_future().wait_for(5s),
                std::future_status::ready);
      AsyncHttpClient::RequestId behind_id =
          send(client, post(numbered(900)), behind);
      client.cancel(behind_id);  // unwritten tail: pruned
      expect_cancelled(behind);
      client.cancel(first_id);   // partly written tail: kept
      expect_cancelled(first);

      const Request follow_up = post("after");
      client.send(listener_->endpoint(), follow_up, 5s, nullptr);
      transport.gate.hold = false;
      const std::string expected = torn.serialize() + follow_up.serialize();
      EXPECT_EQ(read_wire(expected.size()), expected);
    }
    peer_.reset();
  }
}

}  // namespace
}  // namespace spi::http
