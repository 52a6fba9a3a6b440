// Reactor-driver integration tests over real TCP sockets: the hardening
// parity cases from test_hardening.cpp (slowloris 408, idle reap, 503 at
// the accept cap, malformed 400) plus reactor-specific behaviour —
// keep-alive pipelining, many parked connections on one loop thread, the
// loop/connection gauges, and the stop()/stop_accepting() join contract.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/client.hpp"
#include "http/server.hpp"
#include "net/tcp_transport.hpp"

namespace spi::http {
namespace {

using namespace std::chrono_literals;

Response ok_handler(const Request& request) {
  return Response::make(200, "OK", "echo:" + request.body);
}

class ReactorServerTest : public ::testing::Test {
 protected:
  std::unique_ptr<HttpServer> make_server(ServerOptions options = {}) {
    auto server = std::make_unique<HttpServer>(
        transport_, net::Endpoint{"127.0.0.1", 0}, ok_handler, options);
    EXPECT_TRUE(server->start().ok());
    return server;
  }

  std::unique_ptr<net::Connection> connect(const HttpServer& server) {
    auto connection = transport_.connect(server.endpoint());
    EXPECT_TRUE(connection.ok());
    return std::move(connection.value());
  }

  static std::string drain(net::Connection& connection) {
    std::string received;
    while (true) {
      auto chunk = connection.receive(4096);
      if (!chunk.ok()) break;
      received += chunk.value();
    }
    return received;
  }

  // Receives until `count` complete responses have been framed.
  static std::vector<Response> receive_responses(net::Connection& connection,
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

  net::TcpTransport transport_;
};

TEST_F(ReactorServerTest, ServesRequestsInReactorMode) {
  auto server = make_server();
  ASSERT_TRUE(server->reactor_mode());

  HttpClient client(transport_, server->endpoint());
  for (int i = 0; i < 5; ++i) {
    auto response = client.post("/svc", "ping" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    EXPECT_EQ(response.value().status, 200);
    EXPECT_EQ(response.value().body, "echo:ping" + std::to_string(i));
  }
  EXPECT_EQ(server->requests_served(), 5u);
  EXPECT_GT(server->reactor_loop_iterations(), 0u);
}

TEST_F(ReactorServerTest, ReactorThreadsZeroFallsBackToBlockingDriver) {
  ServerOptions options;
  options.reactor_threads = 0;
  auto server = make_server(options);
  EXPECT_FALSE(server->reactor_mode());

  HttpClient client(transport_, server->endpoint());
  auto response = client.post("/svc", "hi");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().body, "echo:hi");
}

TEST_F(ReactorServerTest, KeepAliveConnectionServesManySequentialRequests) {
  auto server = make_server();
  auto connection = connect(*server);
  for (int i = 0; i < 3; ++i) {
    Request request;
    request.target = "/svc";
    request.body = "r" + std::to_string(i);
    ASSERT_TRUE(connection->send(request.serialize()).ok());
    auto responses = receive_responses(*connection, 1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, 200);
    EXPECT_EQ(responses[0].body, "echo:r" + std::to_string(i));
  }
  EXPECT_EQ(server->requests_served(), 3u);
  EXPECT_EQ(server->open_connections(), 1u);
}

TEST_F(ReactorServerTest, PipelinedRequestsAnsweredInOrder) {
  auto server = make_server();
  auto connection = connect(*server);
  Request a, b;
  a.target = b.target = "/svc";
  a.body = "first";
  b.body = "second";
  // Both requests hit the socket before any response: the FSM serves them
  // back to back off the parser buffer.
  ASSERT_TRUE(connection->send(a.serialize() + b.serialize()).ok());
  auto responses = receive_responses(*connection, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "echo:first");
  EXPECT_EQ(responses[1].body, "echo:second");
}

TEST_F(ReactorServerTest, MalformedRequestGets400AndClose) {
  auto server = make_server();
  auto connection = connect(*server);
  ASSERT_TRUE(connection->send("NOT EVEN HTTP\r\n\r\n").ok());
  std::string received = drain(*connection);
  EXPECT_NE(received.find("400"), std::string::npos) << received;
  EXPECT_NE(received.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server->requests_served(), 0u);
}

TEST_F(ReactorServerTest, SlowlorisDribbleIsShedWith408) {
  ServerOptions options;
  options.header_read_timeout = 150ms;
  options.idle_timeout = kNoTimeout;
  auto server = make_server(options);

  auto connection = connect(*server);
  const std::string_view head = "POST /spi HTTP/1.1\r\nHost: s\r\nX-A: ";
  for (size_t i = 0; i < head.size(); i += 4) {
    if (!connection->send(head.substr(i, 4)).ok()) break;
    std::this_thread::sleep_for(20ms);
  }
  std::string received = drain(*connection);
  EXPECT_NE(received.find("408"), std::string::npos) << received;
  EXPECT_NE(received.find("Connection: close"), std::string::npos);
  EXPECT_GE(server->read_timeouts(), 1u);
  EXPECT_EQ(server->requests_served(), 0u);

  // The loop never blocked on the attacker: a normal client is served.
  HttpClient client(transport_, server->endpoint());
  auto response = client.post("/x", "after");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 200);
}

TEST_F(ReactorServerTest, IdleKeepAliveConnectionIsReapedSilently) {
  ServerOptions options;
  options.idle_timeout = 100ms;
  options.header_read_timeout = kNoTimeout;
  auto server = make_server(options);

  auto connection = connect(*server);
  Request request;
  request.body = "z";
  ASSERT_TRUE(connection->send(request.serialize()).ok());
  auto responses = receive_responses(*connection, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);

  // Then go idle: the timer wheel reaps the connection without writing.
  auto next = connection->receive(4096);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code(), ErrorCode::kConnectionClosed);
  EXPECT_EQ(server->read_timeouts(), 0u);
  for (int i = 0; i < 100 && server->open_connections() > 0; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server->open_connections(), 0u);
}

TEST_F(ReactorServerTest, ConnectionCapAnswers503AtAccept) {
  ServerOptions options;
  options.max_connections = 2;
  auto server = make_server(options);

  auto first = connect(*server);
  auto second = connect(*server);
  for (int i = 0; i < 100 && server->open_connections() < 2; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server->open_connections(), 2u);

  auto third = connect(*server);
  std::string received = drain(*third);
  EXPECT_NE(received.find("503"), std::string::npos) << received;
  EXPECT_NE(received.find("Retry-After"), std::string::npos);
  EXPECT_GE(server->connections_rejected(), 1u);

  first->close();
  for (int i = 0; i < 100 && server->open_connections() >= 2; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  HttpClient client(transport_, server->endpoint());
  auto response = client.post("/x", "after");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 200);
}

TEST_F(ReactorServerTest, ManyParkedConnectionsDoNotOccupyPoolThreads) {
  // The reactor's whole point: parked keep-alive connections cost no
  // protocol threads. With a 2-thread pool, park well over 2 connections
  // and verify fresh requests still flow.
  ServerOptions options;
  options.protocol_threads = 2;
  auto server = make_server(options);

  std::vector<std::unique_ptr<net::Connection>> parked;
  for (int i = 0; i < 64; ++i) parked.push_back(connect(*server));
  for (int i = 0; i < 200 && server->open_connections() < 64; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server->open_connections(), 64u);
  EXPECT_EQ(server->reactor_connections(), 64u);

  HttpClient client(transport_, server->endpoint());
  auto response = client.post("/x", "through");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().body, "echo:through");
}

TEST_F(ReactorServerTest, MultipleReactorsShardConnections) {
  ServerOptions options;
  options.reactor_threads = 2;
  auto server = make_server(options);

  std::vector<std::unique_ptr<net::Connection>> connections;
  std::vector<std::string> bodies;
  for (int i = 0; i < 8; ++i) {
    connections.push_back(connect(*server));
    Request request;
    request.body = "c";
    request.body += std::to_string(i);
    ASSERT_TRUE(connections.back()->send(request.serialize()).ok());
    bodies.push_back("echo:c" + std::to_string(i));
  }
  for (size_t i = 0; i < connections.size(); ++i) {
    auto responses = receive_responses(*connections[i], 1);
    ASSERT_EQ(responses.size(), 1u) << "connection " << i;
    EXPECT_EQ(responses[0].body, bodies[i]);
  }
  EXPECT_EQ(server->requests_served(), 8u);
}

TEST_F(ReactorServerTest, AcceptShardingGivesEveryLoopAListener) {
  ServerOptions options;
  options.reactor_threads = 2;
  auto server = make_server(options);
  if (!transport_.supports_reuse_port()) {
    GTEST_SKIP() << "no SO_REUSEPORT on this platform";
  }
  ASSERT_TRUE(server->accept_sharded());
  ASSERT_EQ(server->loop_count(), 2u);

  // Kernel 4-tuple hashing spreads distinct client ports across the two
  // accept queues; with 32 connections each loop gets some (the chance of
  // an empty loop is 2^-32). Every accept is local: loop accepts sum to
  // the connection count, and connections stay on the loop that accepted
  // them.
  std::vector<std::unique_ptr<net::Connection>> parked;
  for (int i = 0; i < 32; ++i) parked.push_back(connect(*server));
  for (int i = 0; i < 200 && server->open_connections() < 32; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server->open_connections(), 32u);

  auto loop0 = server->loop_snapshot(0);
  auto loop1 = server->loop_snapshot(1);
  EXPECT_EQ(loop0.accepts + loop1.accepts, 32u);
  EXPECT_EQ(loop0.connections + loop1.connections, 32u);
  EXPECT_GT(loop0.accepts, 0u);
  EXPECT_GT(loop1.accepts, 0u);
  EXPECT_EQ(loop0.connections, loop0.accepts);
  EXPECT_EQ(loop1.connections, loop1.accepts);

  // Requests still flow through the sharded listeners.
  HttpClient client(transport_, server->endpoint());
  auto response = client.post("/x", "sharded");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().body, "echo:sharded");
}

TEST_F(ReactorServerTest, AcceptShardingOffFallsBackToRoundRobin) {
  ServerOptions options;
  options.reactor_threads = 2;
  options.accept_sharding = false;
  auto server = make_server(options);
  EXPECT_FALSE(server->accept_sharded());

  // Round-robin handoff from the loop-0 listener: connections alternate
  // across loops deterministically.
  std::vector<std::unique_ptr<net::Connection>> parked;
  for (int i = 0; i < 8; ++i) parked.push_back(connect(*server));
  // open_connections() counts at accept; a loop counts a connection only
  // once it has adopted the handoff, so wait for both.
  auto adopted = [&] {
    return server->loop_snapshot(0).connections +
           server->loop_snapshot(1).connections;
  };
  for (int i = 0;
       i < 200 && (server->open_connections() < 8 || adopted() < 8); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server->open_connections(), 8u);
  EXPECT_EQ(server->loop_snapshot(0).connections, 4u);
  EXPECT_EQ(server->loop_snapshot(1).connections, 4u);
}

TEST_F(ReactorServerTest, SingleLoopServerDoesNotShard) {
  ServerOptions options;
  options.reactor_threads = 1;
  auto server = make_server(options);
  EXPECT_FALSE(server->accept_sharded());
  HttpClient client(transport_, server->endpoint());
  auto response = client.post("/x", "one");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
}

TEST_F(ReactorServerTest, AcceptBatchCapStillDrainsFullBacklog) {
  // A tiny per-wake cap may take several wakes, but the level-triggered
  // poller re-reports the listener until the backlog is dry: every
  // connect is eventually served.
  ServerOptions options;
  options.accept_batch_per_wake = 2;
  auto server = make_server(options);

  std::vector<std::unique_ptr<net::Connection>> parked;
  for (int i = 0; i < 16; ++i) parked.push_back(connect(*server));
  for (int i = 0; i < 200 && server->open_connections() < 16; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server->open_connections(), 16u);

  HttpClient client(transport_, server->endpoint());
  auto response = client.post("/x", "drained");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
}

TEST_F(ReactorServerTest, StopAcceptingThenStopJoinsExactlyOnce) {
  // Satellite regression: stop_accepting() followed by stop() used to
  // double-join the acceptor. Both orders and repeats must be safe.
  auto server = make_server();
  HttpClient client(transport_, server->endpoint());
  ASSERT_TRUE(client.post("/x", "a").ok());

  server->stop_accepting();
  EXPECT_FALSE(transport_.connect(server->endpoint()).ok());
  server->stop_accepting();  // idempotent
  server->stop();
  server->stop();  // idempotent
  EXPECT_EQ(server->open_connections(), 0u);
}

TEST_F(ReactorServerTest, StopTearsDownParkedConnections) {
  auto server = make_server();
  std::vector<std::unique_ptr<net::Connection>> parked;
  for (int i = 0; i < 8; ++i) parked.push_back(connect(*server));
  for (int i = 0; i < 100 && server->open_connections() < 8; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  server->stop();
  EXPECT_EQ(server->open_connections(), 0u);
  EXPECT_EQ(server->reactor_connections(), 0u);
  for (auto& connection : parked) {
    auto next = connection->receive(64);
    EXPECT_FALSE(next.ok());
  }
}

TEST_F(ReactorServerTest, GaugesExposeLoopActivity) {
  ServerOptions options;
  options.idle_timeout = 10s;
  auto server = make_server(options);
  auto connection = connect(*server);
  for (int i = 0; i < 100 && server->open_connections() < 1; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server->reactor_connections(), 1u);
  EXPECT_GT(server->reactor_loop_iterations(), 0u);
  // The parked connection's idle timer sits on the loop's wheel.
  EXPECT_GE(server->timer_wheel_depth(), 1u);
}

}  // namespace
}  // namespace spi::http
