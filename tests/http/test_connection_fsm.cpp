// ConnectionFsm unit tests against a fake Host: every protocol decision
// (dispatch, 400/408, keep-alive vs close, which timer is armed, counter
// accounting) exercised without a transport or a thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "http/connection_fsm.hpp"

namespace spi::http {
namespace {

using namespace std::chrono_literals;

TimePoint at(Duration offset) { return TimePoint{} + offset; }

struct FakeHost : ConnectionFsm::Host {
  struct Send {
    std::string bytes;  // segments joined, for wire-content assertions
    std::vector<std::string> segments;
    bool close_after;
  };
  std::vector<Send> sends;
  std::vector<Request> dispatched;
  std::vector<std::pair<ConnectionFsm::TimerKind, Duration>> armed;
  int cancels = 0;
  int closes = 0;

  void send_bytes(std::vector<SharedBytes> segments,
                  bool close_after) override {
    Send send;
    for (const SharedBytes& segment : segments) {
      send.bytes += segment.bytes;
      send.segments.emplace_back(segment.bytes);
    }
    send.close_after = close_after;
    sends.push_back(std::move(send));
  }
  void dispatch(Request request) override {
    dispatched.push_back(std::move(request));
  }
  void arm_timer(ConnectionFsm::TimerKind kind, Duration delay) override {
    armed.emplace_back(kind, delay);
  }
  void cancel_timer() override { ++cancels; }
  void close_connection() override { ++closes; }
};

class ConnectionFsmTest : public ::testing::Test {
 protected:
  ConnectionFsm make(ConnectionFsm::Config config = {}) {
    return ConnectionFsm(host_, config,
                         {&requests_served_, &active_requests_,
                          &read_timeouts_},
                         accepting_);
  }

  static std::string simple_request(bool close = false) {
    std::string req =
        "POST /svc HTTP/1.1\r\nHost: test\r\nContent-Length: 2\r\n";
    if (close) req += "Connection: close\r\n";
    req += "\r\nhi";
    return req;
  }

  FakeHost host_;
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<size_t> active_requests_{0};
  std::atomic<std::uint64_t> read_timeouts_{0};
};

TEST_F(ConnectionFsmTest, FullRequestDispatchesAndKeepsAlive) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  EXPECT_EQ(fsm.state(), ConnectionState::kKeepAliveIdle);

  fsm.on_bytes(simple_request(), at(1ms));
  ASSERT_EQ(host_.dispatched.size(), 1u);
  EXPECT_EQ(host_.dispatched[0].target, "/svc");
  EXPECT_EQ(host_.dispatched[0].body, "hi");
  EXPECT_EQ(fsm.state(), ConnectionState::kDispatched);
  EXPECT_FALSE(fsm.wants_read());  // reads paused while handler runs
  EXPECT_EQ(active_requests_.load(), 1u);

  fsm.on_response(Response::make(200, "OK", "ok"), false, at(2ms));
  ASSERT_EQ(host_.sends.size(), 1u);
  EXPECT_FALSE(host_.sends[0].close_after);
  EXPECT_EQ(host_.sends[0].bytes.find("Connection: close"),
            std::string::npos);
  EXPECT_EQ(fsm.state(), ConnectionState::kWritingResponse);
  EXPECT_EQ(requests_served_.load(), 1u);

  fsm.on_send_complete(at(3ms));
  EXPECT_EQ(fsm.state(), ConnectionState::kKeepAliveIdle);
  EXPECT_TRUE(fsm.wants_read());
  EXPECT_EQ(active_requests_.load(), 0u);
  EXPECT_EQ(host_.closes, 0);
}

TEST_F(ConnectionFsmTest, ResponseArrivesAsHeadAndBodySegments) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes(simple_request(), at(1ms));

  fsm.on_response(Response::make(200, "OK", "payload"), false, at(2ms));
  ASSERT_EQ(host_.sends.size(), 1u);
  // Head and body travel as separate segments so the host can hand the
  // body straight to writev without re-copying it into the head buffer.
  ASSERT_EQ(host_.sends[0].segments.size(), 2u);
  EXPECT_NE(host_.sends[0].segments[0].find("200 OK"), std::string::npos);
  EXPECT_EQ(host_.sends[0].segments[1], "payload");

  // Empty bodies do not produce an empty trailing segment.
  fsm.on_send_complete(at(3ms));
  fsm.on_bytes(simple_request(), at(4ms));
  fsm.on_response(Response::make(204, "No Content", ""), false, at(5ms));
  ASSERT_EQ(host_.sends.size(), 2u);
  EXPECT_EQ(host_.sends[1].segments.size(), 1u);
}

TEST_F(ConnectionFsmTest, ByteAtATimeRequestStillParses) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  const std::string req = simple_request();
  for (size_t i = 0; i < req.size(); ++i) {
    fsm.on_bytes(std::string_view(&req[i], 1), at(1ms));
  }
  ASSERT_EQ(host_.dispatched.size(), 1u);
  EXPECT_EQ(host_.dispatched[0].body, "hi");
}

TEST_F(ConnectionFsmTest, MalformedBytesGet400ThenClose) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes("GARBAGE NONSENSE\r\n\r\n", at(1ms));
  ASSERT_EQ(host_.sends.size(), 1u);
  EXPECT_NE(host_.sends[0].bytes.find("400 Bad Request"), std::string::npos);
  EXPECT_TRUE(host_.sends[0].close_after);
  EXPECT_TRUE(host_.dispatched.empty());
  fsm.on_send_complete(at(2ms));
  EXPECT_TRUE(fsm.closed());
  EXPECT_EQ(host_.closes, 1);
  // A shed never entered the in-flight span.
  EXPECT_EQ(active_requests_.load(), 0u);
}

TEST_F(ConnectionFsmTest, ConnectionCloseRequestEndsAfterResponse) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes(simple_request(/*close=*/true), at(1ms));
  fsm.on_response(Response::make(200, "OK"), false, at(2ms));
  ASSERT_EQ(host_.sends.size(), 1u);
  EXPECT_TRUE(host_.sends[0].close_after);
  EXPECT_NE(host_.sends[0].bytes.find("Connection: close"),
            std::string::npos);
  fsm.on_send_complete(at(3ms));
  EXPECT_TRUE(fsm.closed());
}

TEST_F(ConnectionFsmTest, HandlerFailureForcesClose) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes(simple_request(), at(1ms));
  fsm.on_response(Response::make(500, "Internal Server Error"),
                  /*handler_failed=*/true, at(2ms));
  ASSERT_EQ(host_.sends.size(), 1u);
  EXPECT_TRUE(host_.sends[0].close_after);
}

TEST_F(ConnectionFsmTest, DrainDisablesKeepAlive) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes(simple_request(), at(1ms));
  accepting_.store(false);  // drain began while the handler ran
  fsm.on_response(Response::make(200, "OK"), false, at(2ms));
  ASSERT_EQ(host_.sends.size(), 1u);
  EXPECT_TRUE(host_.sends[0].close_after);
  EXPECT_NE(host_.sends[0].bytes.find("Connection: close"),
            std::string::npos);
}

TEST_F(ConnectionFsmTest, HeaderTimeoutAnswers408) {
  ConnectionFsm::Config config;
  config.header_read_timeout = 100ms;
  auto fsm = make(config);
  fsm.on_open(at(0ms));
  fsm.on_bytes("POST / HTTP/1.1\r\n", at(1ms));
  ASSERT_FALSE(host_.armed.empty());
  EXPECT_EQ(host_.armed.back().first, ConnectionFsm::TimerKind::kHeaderRead);
  EXPECT_EQ(host_.armed.back().second, 100ms);

  fsm.on_timer(at(101ms));
  ASSERT_EQ(host_.sends.size(), 1u);
  EXPECT_NE(host_.sends[0].bytes.find("408 Request Timeout"),
            std::string::npos);
  EXPECT_TRUE(host_.sends[0].close_after);
  EXPECT_EQ(read_timeouts_.load(), 1u);
}

TEST_F(ConnectionFsmTest, HeaderTimerNotExtendedByDribbledProgress) {
  ConnectionFsm::Config config;
  config.header_read_timeout = 100ms;
  auto fsm = make(config);
  fsm.on_open(at(0ms));
  fsm.on_bytes("POST / HT", at(1ms));
  fsm.on_bytes("TP/1.1\r\nHost:", at(2ms));
  fsm.on_bytes(" a\r\n", at(3ms));
  // One budget per message: the slowloris drip must not re-arm it.
  int header_arms = 0;
  for (const auto& [kind, delay] : host_.armed) {
    if (kind == ConnectionFsm::TimerKind::kHeaderRead) ++header_arms;
  }
  EXPECT_EQ(header_arms, 1);
}

TEST_F(ConnectionFsmTest, IdleTimeoutClosesSilently) {
  ConnectionFsm::Config config;
  config.idle_timeout = 50ms;
  auto fsm = make(config);
  fsm.on_open(at(0ms));
  ASSERT_FALSE(host_.armed.empty());
  EXPECT_EQ(host_.armed.back().first, ConnectionFsm::TimerKind::kIdle);
  fsm.on_timer(at(51ms));
  EXPECT_TRUE(fsm.closed());
  EXPECT_TRUE(host_.sends.empty());  // nothing to answer between messages
  EXPECT_EQ(host_.closes, 1);
}

TEST_F(ConnectionFsmTest, StaleTimerAfterDispatchIsIgnored) {
  ConnectionFsm::Config config;
  config.header_read_timeout = 100ms;
  auto fsm = make(config);
  fsm.on_open(at(0ms));
  fsm.on_bytes(simple_request(), at(1ms));
  ASSERT_EQ(fsm.state(), ConnectionState::kDispatched);
  fsm.on_timer(at(200ms));  // raced the cancel; progress already happened
  EXPECT_EQ(fsm.state(), ConnectionState::kDispatched);
  EXPECT_TRUE(host_.sends.empty());
  EXPECT_EQ(host_.closes, 0);
}

TEST_F(ConnectionFsmTest, PipelinedRequestsServeInOrder) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes(simple_request() + simple_request(), at(1ms));
  // One request in flight at a time; the second waits in the parser.
  ASSERT_EQ(host_.dispatched.size(), 1u);
  fsm.on_response(Response::make(200, "OK"), false, at(2ms));
  fsm.on_send_complete(at(3ms));
  // Send-complete polls the buffer and dispatches the pipelined successor.
  ASSERT_EQ(host_.dispatched.size(), 2u);
  EXPECT_EQ(fsm.state(), ConnectionState::kDispatched);
  fsm.on_response(Response::make(200, "OK"), false, at(4ms));
  fsm.on_send_complete(at(5ms));
  EXPECT_EQ(requests_served_.load(), 2u);
  EXPECT_EQ(active_requests_.load(), 0u);
}

TEST_F(ConnectionFsmTest, PeerCloseMidMessageBalancesCounters) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes("POST / HTTP/1.1\r\nContent-Le", at(1ms));
  EXPECT_EQ(fsm.state(), ConnectionState::kReadingHeaders);
  fsm.on_peer_closed();
  EXPECT_TRUE(fsm.closed());
  EXPECT_EQ(host_.closes, 1);
  EXPECT_EQ(active_requests_.load(), 0u);
  // Terminal: later events are inert.
  fsm.on_bytes("ngth: 2\r\n\r\nhi", at(2ms));
  EXPECT_TRUE(host_.dispatched.empty());
}

TEST_F(ConnectionFsmTest, PeerCloseWhileDispatchedDropsResponse) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes(simple_request(), at(1ms));
  EXPECT_EQ(active_requests_.load(), 1u);
  fsm.on_peer_closed();
  EXPECT_EQ(active_requests_.load(), 0u);
  // The handler still finishes; its response has nowhere to go.
  fsm.on_response(Response::make(200, "OK"), false, at(2ms));
  EXPECT_TRUE(host_.sends.empty());
  EXPECT_EQ(requests_served_.load(), 0u);
}

TEST_F(ConnectionFsmTest, BodyStateTracksFraming) {
  auto fsm = make();
  fsm.on_open(at(0ms));
  fsm.on_bytes("POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\nhel", at(1ms));
  EXPECT_EQ(fsm.state(), ConnectionState::kReadingBody);
  fsm.on_bytes("lo world", at(2ms));
  ASSERT_EQ(host_.dispatched.size(), 1u);
  EXPECT_EQ(host_.dispatched[0].body, "hello world");
}

}  // namespace
}  // namespace spi::http
