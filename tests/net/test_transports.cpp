// Behavioural contract shared by SimTransport and TcpTransport, tested via
// a typed parameterized suite, plus transport-specific cases.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/endpoint.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"

namespace spi::net {
namespace {

// --- Endpoint ---------------------------------------------------------------

TEST(EndpointTest, ParsesHostPort) {
  auto endpoint = Endpoint::parse("example.org:8080");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint.value().host, "example.org");
  EXPECT_EQ(endpoint.value().port, 8080);
  EXPECT_EQ(endpoint.value().to_string(), "example.org:8080");
}

TEST(EndpointTest, RejectsMalformed) {
  EXPECT_FALSE(Endpoint::parse("nohost").ok());
  EXPECT_FALSE(Endpoint::parse(":80").ok());
  EXPECT_FALSE(Endpoint::parse("h:").ok());
  EXPECT_FALSE(Endpoint::parse("h:99999").ok());
  EXPECT_FALSE(Endpoint::parse("h:abc").ok());
}

TEST(EndpointTest, Ordering) {
  EXPECT_EQ((Endpoint{"a", 1}), (Endpoint{"a", 1}));
  EXPECT_LT((Endpoint{"a", 1}), (Endpoint{"a", 2}));
  EXPECT_LT((Endpoint{"a", 9}), (Endpoint{"b", 1}));
}

// --- shared transport contract ----------------------------------------------

/// Factory abstraction so the same suite runs on both transports.
struct TransportFixture {
  virtual ~TransportFixture() = default;
  virtual Transport& transport() = 0;
  virtual Endpoint make_endpoint() = 0;
};

struct SimFixture : TransportFixture {
  SimTransport sim;
  int next_port = 1;
  Transport& transport() override { return sim; }
  Endpoint make_endpoint() override {
    return Endpoint{"host", static_cast<std::uint16_t>(next_port++)};
  }
};

struct TcpFixture : TransportFixture {
  TcpTransport tcp;
  Transport& transport() override { return tcp; }
  Endpoint make_endpoint() override { return Endpoint{"127.0.0.1", 0}; }
};

class TransportContractTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "sim") {
      fixture_ = std::make_unique<SimFixture>();
    } else {
      fixture_ = std::make_unique<TcpFixture>();
    }
  }
  Transport& transport() { return fixture_->transport(); }
  Endpoint make_endpoint() { return fixture_->make_endpoint(); }

  std::unique_ptr<TransportFixture> fixture_;
};

TEST_P(TransportContractTest, EchoRoundTrip) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  Endpoint bound = listener.value()->endpoint();

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    auto data = connection.value()->receive(1024);
    ASSERT_TRUE(data.ok());
    ASSERT_TRUE(connection.value()->send("echo:" + data.value()).ok());
  });

  auto client = transport().connect(bound);
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  ASSERT_TRUE(client.value()->send("ping").ok());
  std::string received;
  while (received.size() < 9) {
    auto chunk = client.value()->receive(1024);
    ASSERT_TRUE(chunk.ok()) << chunk.error().to_string();
    received += chunk.value();
  }
  EXPECT_EQ(received, "echo:ping");
}

TEST_P(TransportContractTest, LargeTransferArrivesIntact) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  const std::string payload(1'000'000, 'x');

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    size_t total = 0;
    while (total < payload.size()) {
      auto chunk = connection.value()->receive(64 * 1024);
      ASSERT_TRUE(chunk.ok());
      total += chunk.value().size();
    }
    EXPECT_EQ(total, payload.size());
    ASSERT_TRUE(connection.value()->send("done").ok());
  });

  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->send(payload).ok());
  auto ack = client.value()->receive(16);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value(), "done");
}

TEST_P(TransportContractTest, CloseSignalsPeer) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    // Drain until close.
    while (true) {
      auto chunk = connection.value()->receive(1024);
      if (!chunk.ok()) {
        EXPECT_EQ(chunk.error().code(), ErrorCode::kConnectionClosed);
        break;
      }
    }
  });

  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->send("bye").ok());
  client.value()->close();
}

TEST_P(TransportContractTest, ConnectToUnboundEndpointFails) {
  // For TCP, port 1 on loopback is assumed unbound (no root).
  Endpoint nowhere = GetParam() == "sim" ? Endpoint{"ghost", 404}
                                         : Endpoint{"127.0.0.1", 1};
  auto connection = transport().connect(nowhere);
  ASSERT_FALSE(connection.ok());
  EXPECT_EQ(connection.error().code(), ErrorCode::kConnectionFailed);
}

TEST_P(TransportContractTest, ListenerCloseUnblocksAccept) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  std::jthread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    listener.value()->close();
  });
  auto connection = listener.value()->accept();
  ASSERT_FALSE(connection.ok());
  EXPECT_EQ(connection.error().code(), ErrorCode::kShutdown);
}

TEST_P(TransportContractTest, StatsCountTraffic) {
  transport().reset_stats();
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    (void)connection.value()->receive(1024);
  });
  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->send("12345").ok());
  server.join();
  auto stats = transport().stats();
  EXPECT_EQ(stats.connections_opened, 1u);
  EXPECT_GE(stats.bytes_sent, 5u);
  EXPECT_GE(stats.bytes_received, 5u);
}

TEST_P(TransportContractTest, ReceiveZeroIsInvalid) {
  auto listener = transport().listen(make_endpoint());
  ASSERT_TRUE(listener.ok());
  std::jthread server([&] { (void)listener.value()->accept(); });
  auto client = transport().connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  auto bad = client.value()->receive(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportContractTest,
                         ::testing::Values("sim", "tcp"),
                         [](const auto& info) { return info.param; });

// --- sim-specific -------------------------------------------------------------

TEST(SimTransportTest, DoubleBindFails) {
  SimTransport transport;
  auto first = transport.listen(Endpoint{"h", 1});
  ASSERT_TRUE(first.ok());
  auto second = transport.listen(Endpoint{"h", 1});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kAlreadyExists);
}

TEST(SimTransportTest, EndpointReusableAfterListenerClose) {
  SimTransport transport;
  {
    auto listener = transport.listen(Endpoint{"h", 2});
    ASSERT_TRUE(listener.ok());
    listener.value()->close();
  }
  EXPECT_TRUE(transport.listen(Endpoint{"h", 2}).ok());
}

TEST(SimTransportTest, LinkDelaysApplyToTransfers) {
  LinkParams params = LinkParams::instant();
  params.rtt = std::chrono::milliseconds(10);
  SimTransport transport(params);
  auto listener = transport.listen(Endpoint{"h", 3});
  ASSERT_TRUE(listener.ok());

  std::jthread server([&] {
    auto connection = listener.value()->accept();
    ASSERT_TRUE(connection.ok());
    auto data = connection.value()->receive(64);
    ASSERT_TRUE(data.ok());
    ASSERT_TRUE(connection.value()->send(data.value()).ok());
  });

  auto client = transport.connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  Stopwatch stopwatch;
  ASSERT_TRUE(client.value()->send("x").ok());
  auto reply = client.value()->receive(64);
  ASSERT_TRUE(reply.ok());
  // One full round trip: >= 2 * rtt/2 = 10 ms of modeled propagation.
  EXPECT_GE(stopwatch.elapsed_ms(), 9.0);
}

TEST(SimTransportTest, SendOnClosedConnectionFails) {
  SimTransport transport;
  auto listener = transport.listen(Endpoint{"h", 4});
  ASSERT_TRUE(listener.ok());
  auto client = transport.connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  client.value()->close();
  auto sent = client.value()->send("late");
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code(), ErrorCode::kConnectionClosed);
}

// --- tcp-specific --------------------------------------------------------------

TEST(TcpTransportTest, EphemeralPortResolved) {
  TcpTransport transport;
  auto listener = transport.listen(Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  EXPECT_NE(listener.value()->endpoint().port, 0);
}

TEST(TcpTransportTest, RejectsNonIpv4Host) {
  TcpTransport transport;
  auto listener = transport.listen(Endpoint{"not-an-ip", 0});
  ASSERT_FALSE(listener.ok());
  EXPECT_EQ(listener.error().code(), ErrorCode::kInvalidArgument);
}

TEST(TcpTransportTest, TrySendvGathersSegmentsInOrder) {
  TcpTransport transport;
  EXPECT_TRUE(transport.supports_reuse_port());
  auto listener = transport.listen(Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());

  std::jthread server([&] {
    auto accepted = listener.value()->accept();
    ASSERT_TRUE(accepted.ok());
    std::string received;
    while (received.size() < 11) {
      auto chunk = accepted.value()->receive(64);
      if (!chunk.ok()) break;
      received += chunk.value();
    }
    // Segments land concatenated in order, empties skipped.
    EXPECT_EQ(received, "HEAD|body|!");
    ASSERT_TRUE(accepted.value()->send("k").ok());
  });

  auto client = transport.connect(listener.value()->endpoint());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->supports_sendv());
  const std::string head = "HEAD|";
  const std::string body = "body|";
  ConstBuffer segments[4] = {{head.data(), head.size()},
                             {nullptr, 0},  // empty segments are skipped
                             {body.data(), body.size()},
                             {"!", 1}};
  // An idle loopback socket accepts 11 bytes whole; a short return here
  // would mean the gather itself is broken.
  auto sent = client.value()->try_sendv(segments, 4);
  ASSERT_TRUE(sent.ok()) << sent.error().to_string();
  ASSERT_EQ(sent.value(), 11u);
  auto ack = client.value()->receive(1);
  ASSERT_TRUE(ack.ok());
  // send() counts its bytes after they leave, so the "k" can arrive
  // before the server thread has counted it.
  server.join();

  // The gather is counted once in the wire stats, not per segment.
  EXPECT_EQ(transport.stats().bytes_sent, 12u);  // 11 + the server's "k"
}

TEST(TcpTransportTest, ReusePortListenersShareOneEndpoint) {
  TcpTransport transport;
  ListenOptions options;
  options.reuse_port = true;
  auto first = transport.listen(Endpoint{"127.0.0.1", 0}, options);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const Endpoint endpoint = first.value()->endpoint();

  // Second listener binds the SAME resolved port: kernel accept sharding.
  auto second = transport.listen(endpoint, options);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(second.value()->endpoint().port, endpoint.port);

  // Connections land on exactly one of the two accept queues; with both
  // listeners drained by one thread each, every connect is served.
  std::atomic<int> accepted{0};
  auto drain = [&](Listener& listener) {
    while (true) {
      auto connection = listener.accept();
      if (!connection.ok()) return;  // kShutdown after close()
      accepted.fetch_add(1);
      ASSERT_TRUE(connection.value()->send("hi").ok());
    }
  };
  std::jthread a([&] { drain(*first.value()); });
  std::jthread b([&] { drain(*second.value()); });

  constexpr int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    auto client = transport.connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto greeting = client.value()->receive(2);
    ASSERT_TRUE(greeting.ok()) << greeting.error().to_string();
  }
  EXPECT_EQ(accepted.load(), kClients);
  first.value()->close();
  second.value()->close();
}

TEST(TcpTransportTest, PlainListenRejectsSecondBind) {
  // Without reuse_port the second bind must still fail — the sharding
  // flag is opt-in, not ambient.
  TcpTransport transport;
  auto first = transport.listen(Endpoint{"127.0.0.1", 0});
  ASSERT_TRUE(first.ok());
  auto second = transport.listen(first.value()->endpoint());
  EXPECT_FALSE(second.ok());
}

}  // namespace
}  // namespace spi::net
