// Receiving straight into a message body (DESIGN.md §8): the transport's
// try_receive_into, its default for wrappers that override only
// try_receive, and the HTTP parser's body space, which opens only once a
// Content-Length body's first byte has arrived, never reaches past it,
// and opens a fresh body only as fast as its bytes arrive.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/buffer_pool.hpp"
#include "http/parser.hpp"
#include "net/tcp_transport.hpp"

namespace spi {
namespace {

using namespace std::chrono_literals;

/// A connected loopback pair: `client` dialed, `server` accepted, the
/// server end non-blocking.
struct Pair {
  std::unique_ptr<net::Connection> client;
  std::unique_ptr<net::Connection> server;
};

Pair connect_pair(net::TcpTransport& tcp) {
  auto listener = tcp.listen(net::Endpoint{"127.0.0.1", 0});
  EXPECT_TRUE(listener.ok()) << listener.error().to_string();
  Pair pair;
  auto client = tcp.connect(listener.value()->endpoint());
  EXPECT_TRUE(client.ok()) << client.error().to_string();
  pair.client = std::move(client).value();
  auto server = listener.value()->accept();
  EXPECT_TRUE(server.ok()) << server.error().to_string();
  pair.server = std::move(server).value();
  EXPECT_TRUE(pair.server->set_nonblocking(true).ok());
  return pair;
}

/// Bytes that differ from offset to offset, so a misplaced chunk shows.
std::string numbered(size_t size) {
  std::string bytes;
  for (size_t i = 0; bytes.size() < size; ++i) {
    bytes += std::to_string(i);
    bytes += ',';
  }
  bytes.resize(size);
  return bytes;
}

/// Receives `size` bytes into one buffer through try_receive_into,
/// retrying kWouldBlock for up to five seconds.
std::string receive_all(net::Connection& connection, size_t size) {
  std::string out(size, '\0');
  size_t at = 0;
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (at < size && std::chrono::steady_clock::now() < give_up) {
    auto n = connection.try_receive_into(out.data() + at, size - at);
    if (n.ok()) {
      at += n.value();
    } else if (n.error().code() == ErrorCode::kWouldBlock) {
      std::this_thread::sleep_for(1ms);
    } else {
      ADD_FAILURE() << n.error().to_string();
      break;
    }
  }
  out.resize(at);
  return out;
}

/// A wrapper that overrides try_receive only, as a counting or tracing
/// transport does: try_receive_into must reach the wire through it.
class ReceiveOnlyWrapper final : public net::Connection {
 public:
  explicit ReceiveOnlyWrapper(std::unique_ptr<net::Connection> inner)
      : inner_(std::move(inner)) {}

  Status send(std::string_view bytes) override { return inner_->send(bytes); }
  Result<std::string> receive(size_t max_bytes) override {
    return inner_->receive(max_bytes);
  }
  Status set_receive_timeout(Duration timeout) override {
    return inner_->set_receive_timeout(timeout);
  }
  void close() override { inner_->close(); }
  int native_handle() const override { return inner_->native_handle(); }
  Result<std::string> try_receive(size_t max_bytes) override {
    calls.fetch_add(1);
    size_t seen = largest.load();
    while (max_bytes > seen && !largest.compare_exchange_weak(seen, max_bytes)) {
    }
    return inner_->try_receive(max_bytes);
  }

  std::atomic<size_t> calls{0};
  std::atomic<size_t> largest{0};

 private:
  std::unique_ptr<net::Connection> inner_;
};

TEST(ReceiveIntoTest, WrapperOverridingOnlyTryReceiveStillReceives) {
  net::TcpTransport tcp;
  Pair pair = connect_pair(tcp);
  ReceiveOnlyWrapper wrapper(std::move(pair.server));
  // Past one 64 KiB chunk, so the default must loop through try_receive.
  const std::string sent = numbered(3 * net::kReceiveChunk + 123);
  std::thread sender([&] { ASSERT_TRUE(pair.client->send(sent).ok()); });
  const std::string received = receive_all(wrapper, sent.size());
  sender.join();
  EXPECT_EQ(received, sent);
  EXPECT_GE(wrapper.calls.load(), 4u);
  EXPECT_LE(wrapper.largest.load(), net::kReceiveChunk);
}

TEST(ReceiveIntoTest, TcpReportsWouldBlockAndCloseAsTryReceiveDoes) {
  net::TcpTransport tcp;
  Pair pair = connect_pair(tcp);
  char buffer[64];

  auto idle_into = pair.server->try_receive_into(buffer, sizeof(buffer));
  ASSERT_FALSE(idle_into.ok());
  EXPECT_EQ(idle_into.error().code(), ErrorCode::kWouldBlock);
  auto idle = pair.server->try_receive(sizeof(buffer));
  ASSERT_FALSE(idle.ok());
  EXPECT_EQ(idle.error().code(), ErrorCode::kWouldBlock);

  ASSERT_TRUE(pair.client->send("tail").ok());
  EXPECT_EQ(receive_all(*pair.server, 4), "tail");

  pair.client->close();
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  Result<size_t> closed = size_t{0};
  do {
    closed = pair.server->try_receive_into(buffer, sizeof(buffer));
  } while (!closed.ok() && closed.error().code() == ErrorCode::kWouldBlock &&
           std::chrono::steady_clock::now() < give_up);
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.error().code(), ErrorCode::kConnectionClosed);
  auto closed_too = pair.server->try_receive(sizeof(buffer));
  ASSERT_FALSE(closed_too.ok());
  EXPECT_EQ(closed_too.error().code(), ErrorCode::kConnectionClosed);
}

// --- the parser's body space ------------------------------------------------

using http::MessageParser;

std::string request_head(size_t content_length) {
  return "POST /spi HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(content_length) + "\r\n\r\n";
}

std::uint64_t pool_takes() {
  const buffer_pool::Stats stats = buffer_pool::stats();
  return stats.reused + stats.fresh;
}

/// Writes body[at..] through body_space() as a receive straight into the
/// body does, at most `most` bytes a receive, checking that no space
/// reaches past the body; returns how many receives it took.
size_t receive_rest(MessageParser& parser, const std::string& body,
                    size_t at, size_t most = SIZE_MAX) {
  size_t receives = 0;
  while (at < body.size()) {
    std::span<char> space = parser.body_space();
    if (space.empty() || space.size() > body.size() - at) {
      ADD_FAILURE() << "space of " << space.size() << " with "
                    << body.size() - at << " body bytes to come";
      break;
    }
    const size_t n = std::min(space.size(), most);
    std::memcpy(space.data(), body.data() + at, n);
    parser.commit_body(n);
    at += n;
    ++receives;
  }
  return receives;
}

/// The process's resident set, from /proc/self/statm.
size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(BodySpaceTest, NoneBeforeTheBodysFirstByte) {
  // Above the pool floor, so taking the body would show in the counts.
  const size_t length = 2 * buffer_pool::kFloorBytes;
  MessageParser parser(MessageParser::Mode::kRequest);
  const std::uint64_t takes = pool_takes();
  parser.feed(request_head(length));
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_TRUE(parser.in_body());
  EXPECT_TRUE(parser.body_space().empty());
  EXPECT_EQ(pool_takes(), takes) << "a stalled peer got the allocation";

  const std::string body = numbered(length);
  parser.feed(std::string_view(body).substr(0, 1));
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_FALSE(parser.body_space().empty());
  EXPECT_EQ(pool_takes(), takes + 1);
  EXPECT_GE(receive_rest(parser, body, 1), 1u);
  EXPECT_TRUE(parser.body_space().empty());
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, body);
}

TEST(BodySpaceTest, ReusedBufferOffersTheWholeRest) {
  const size_t length = 2 * buffer_pool::kFloorBytes;
  std::string idle;
  idle.reserve(length);
  idle.assign(length, 'z');
  buffer_pool::give(std::move(idle));
  const buffer_pool::Stats before = buffer_pool::stats();

  const std::string body = numbered(length);
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed(request_head(length) + body.substr(0, 1));
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_EQ(buffer_pool::stats().reused, before.reused + 1);
  EXPECT_EQ(parser.body_space().size(), length - 1);
  EXPECT_EQ(receive_rest(parser, body, 1), 1u);
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, body);
}

// A fresh body is only reserved: a peer that declares the largest body
// the limits allow and sends one byte makes this side write 64 KiB, not
// the declared length, and each later space opens at most as much again
// as has arrived.
TEST(BodySpaceTest, FreshBodyOpensNoMoreThanHasArrived) {
  const size_t length = http::ParserLimits{}.max_body_bytes;
  ASSERT_GT(length, buffer_pool::kIdleBoundBytes) << "must miss the pool";
  constexpr size_t kMinGrowth = net::kReceiveChunk;
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed(request_head(length));
  EXPECT_FALSE(parser.poll_request().has_value());
  const buffer_pool::Stats before = buffer_pool::stats();
  const size_t resident_before = resident_bytes();
  parser.feed("x");
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_EQ(parser.body_space().size(), kMinGrowth);
  EXPECT_LT(resident_bytes(), resident_before + 8 * 1024 * 1024)
      << "the declared length was written";
  const buffer_pool::Stats after = buffer_pool::stats();
  EXPECT_EQ(after.fresh, before.fresh + 1);
  EXPECT_EQ(after.reused, before.reused);

  size_t at = 1;
  for (int round = 0; round < 4; ++round) {
    std::span<char> space = parser.body_space();
    ASSERT_EQ(space.size(), std::max(at, kMinGrowth));
    std::memset(space.data(), 'y', space.size());
    parser.commit_body(space.size());
    at += space.size();
  }
  EXPECT_TRUE(parser.in_body());
  EXPECT_FALSE(parser.poll_request().has_value());
}

TEST(BodySpaceTest, NoneForChunkedBodies) {
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed(
      "POST /spi HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhel");
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_TRUE(parser.in_body());
  EXPECT_TRUE(parser.body_space().empty());
  parser.feed("lo\r\n0\r\n\r\n");
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "hello");
}

TEST(BodySpaceTest, NeverPastTheBodySoASuccessorStaysOut) {
  const std::string body = numbered(100000);
  const std::string next = request_head(4) + "next";
  for (size_t first : {size_t{1}, size_t{4096}, body.size() - 1}) {
    SCOPED_TRACE("first delivery carries " + std::to_string(first) +
                 " body bytes");
    MessageParser parser(MessageParser::Mode::kRequest);
    parser.feed(request_head(body.size()) + body.substr(0, first));
    EXPECT_FALSE(parser.poll_request().has_value());
    // Offered in receives no larger than what is left, some of them
    // filling only part of the space.
    EXPECT_GE(receive_rest(parser, body, first, 60000), 1u);
    EXPECT_TRUE(parser.body_space().empty());
    // The successor arrives through feed(), as the drivers deliver it.
    parser.feed(next);
    auto request = parser.poll_request();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->body, body);
    auto successor = parser.poll_request();
    ASSERT_TRUE(successor.has_value());
    EXPECT_EQ(successor->body, "next");
  }
}

TEST(BodySpaceTest, BodyArrivingWholeIsCopiedOnce) {
  MessageParser parser(MessageParser::Mode::kResponse);
  parser.feed("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
  EXPECT_TRUE(parser.body_space().empty());
  auto response = parser.poll_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "hello");
}

}  // namespace
}  // namespace spi
