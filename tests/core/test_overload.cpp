// Overload protection end to end (DESIGN.md §11): fan-out caps that fault
// excess calls while siblings execute, shed-don't-block application-queue
// handoff, Retry-After as a client backoff floor, and the adaptive
// concurrency limiter shedding under saturation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "benchsupport/workload.hpp"
#include "core/client.hpp"
#include "core/remote_plan.hpp"
#include "core/server.hpp"
#include "http/client.hpp"
#include "net/sim_transport.hpp"
#include "resilience/retry.hpp"
#include "services/echo.hpp"

namespace spi::core {
namespace {

using soap::Value;

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override { services::register_echo_service(registry_); }

  net::SimTransport transport_;
  ServiceRegistry registry_;
};

TEST_F(OverloadTest, FanoutCapFaultsExcessCallsWhileSiblingsExecute) {
  ServerOptions options;
  options.envelope_limits.max_fanout = 4;
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport_, server.endpoint());

  auto calls = bench::make_echo_calls(8, 10, /*seed=*/1);
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 8u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(outcomes[i].ok()) << "sibling " << i << " under the cap: "
                                  << outcomes[i].error().to_string();
  }
  for (size_t i = 4; i < 8; ++i) {
    ASSERT_FALSE(outcomes[i].ok()) << "call " << i << " is over the cap";
    EXPECT_EQ(outcomes[i].error().code(), ErrorCode::kFault);
    EXPECT_EQ(resilience::fault_cause(outcomes[i].error()),
              ErrorCode::kCapacityExceeded);
    EXPECT_NE(
        outcomes[i].error().message().find("envelope limit exceeded: fan-out"),
        std::string::npos)
        << outcomes[i].error().message();
    // Shed-before-execute: safe for the client to replay.
    EXPECT_EQ(resilience::classify(outcomes[i].error()),
              resilience::FaultClass::kRetryableNotExecuted);
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.dispatcher.limit_rejected_calls, 4u);
  EXPECT_EQ(stats.dispatcher.calls_dispatched, 4u);
}

TEST_F(OverloadTest, TenThousandCallPackBoundedByDefaultCap) {
  // The hostile shape the cap exists for: M=10k against the default
  // fan-out bound. The first max_fanout calls run, the rest fault, and
  // the server stays up.
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport_, server.endpoint());
  const size_t cap = soap::EnvelopeLimits{}.max_fanout;

  auto calls = bench::make_echo_calls(10'000, 8, /*seed=*/2);
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 10'000u);
  size_t ok = 0, rejected = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.ok()) {
      ++ok;
    } else if (outcome.error().message().find(
                   "envelope limit exceeded: fan-out") != std::string::npos) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok, cap);
  EXPECT_EQ(rejected, 10'000u - cap);
  EXPECT_EQ(server.stats().dispatcher.limit_rejected_calls, 10'000u - cap);

  // The server still serves normal traffic afterwards.
  auto after = client.call("EchoService", "Echo", {{"data", Value("ok")}});
  EXPECT_TRUE(after.ok());
}

TEST_F(OverloadTest, PlanOverFanoutCapRejectedWholesale) {
  // A plan's later steps may reference earlier results, so truncating a
  // plan would execute a prefix whose outputs feed rejected steps; the
  // dispatcher rejects the whole plan instead.
  ServerOptions options;
  options.envelope_limits.max_fanout = 2;
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport_, server.endpoint());

  RemotePlan plan;
  plan.step("EchoService", "Echo", {PlanArg::value("data", Value("a"))})
      .step("EchoService", "Echo", {PlanArg::value("data", Value("b"))})
      .step("EchoService", "Echo", {PlanArg::value("data", Value("c"))});
  auto outcomes = client.execute_plan(plan);
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  ASSERT_EQ(outcomes.value().size(), 3u);
  for (const auto& outcome : outcomes.value()) {
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(resilience::fault_cause(outcome.error()),
              ErrorCode::kCapacityExceeded);
    EXPECT_NE(outcome.error().message().find("plan steps"),
              std::string::npos)
        << outcome.error().message();
  }
  EXPECT_EQ(server.stats().dispatcher.calls_dispatched, 0u);
}

TEST_F(OverloadTest, FullApplicationQueueShedsInsteadOfBlocking) {
  ServerOptions options;
  options.staged = true;
  options.application_threads = 1;
  options.application_queue_capacity = 1;
  options.protocol_threads = 16;
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());

  // 8 concurrent slow calls against 1 worker + 1 queue slot: at most two
  // can be in the application stage; the rest must shed fast with a
  // retryable CapacityExceeded fault, not block their protocol threads.
  std::atomic<int> ok_count{0}, shed_count{0}, other{0};
  {
    std::vector<std::jthread> clients;
    for (int t = 0; t < 8; ++t) {
      clients.emplace_back([&] {
        SpiClient client(transport_, server.endpoint());
        auto outcome = client.call("EchoService", "Delay",
                                   {{"milliseconds", Value(50)}});
        if (outcome.ok()) {
          ++ok_count;
        } else if (outcome.error().message().find(
                       "application stage queue is full") !=
                   std::string::npos) {
          EXPECT_EQ(resilience::fault_cause(outcome.error()),
                    ErrorCode::kCapacityExceeded);
          EXPECT_EQ(resilience::classify(outcome.error()),
                    resilience::FaultClass::kRetryableNotExecuted);
          ++shed_count;
        } else {
          ADD_FAILURE() << outcome.error().to_string();
          ++other;
        }
      });
    }
  }
  EXPECT_EQ(ok_count.load() + shed_count.load() + other.load(), 8);
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(shed_count.load(), 1);
  EXPECT_EQ(server.stats().dispatcher.queue_full_shed,
            static_cast<std::uint64_t>(shed_count.load()));

  // After the burst the queue drains and the server accepts work again.
  SpiClient client(transport_, server.endpoint());
  EXPECT_TRUE(
      client.call("EchoService", "Echo", {{"data", Value("ok")}}).ok());
}

TEST_F(OverloadTest, AdmissionShedCarries503AndRetryAfter) {
  ServerOptions options;
  options.max_concurrent_messages = 1;
  options.retry_after_hint = std::chrono::milliseconds(50);
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());

  std::jthread blocker([&] {
    SpiClient client(transport_, server.endpoint());
    (void)client.call("EchoService", "Delay", {{"milliseconds", Value(300)}});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Probe on the raw HTTP client so the shed response's status line and
  // headers are visible.
  Assembler assembler;
  std::vector<ServiceCall> calls = {
      make_call("EchoService", "Echo", {{"data", Value("probe")}})};
  std::string envelope =
      assembler.assemble_request(calls, PackMode::kSingle).flatten();
  http::HttpClient http(transport_, server.endpoint());
  auto response = http.post("/spi", std::move(envelope), "text/xml");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 503);
  EXPECT_NE(response.value().body.find("CapacityExceeded"),
            std::string::npos);
  auto hint = response.value().headers.get("Retry-After");
  ASSERT_TRUE(hint.has_value()) << "503 shed must carry Retry-After";
  auto floor = resilience::parse_retry_after(*hint);
  ASSERT_TRUE(floor.has_value()) << *hint;
  EXPECT_EQ(*floor, std::chrono::milliseconds(50));
  EXPECT_GE(server.stats().admission_rejections, 1u);
}

TEST_F(OverloadTest, RetryAfterActsAsClientBackoffFloor) {
  ServerOptions options;
  options.max_concurrent_messages = 1;
  options.retry_after_hint = std::chrono::milliseconds(250);
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());

  std::jthread blocker([&] {
    SpiClient client(transport_, server.endpoint());
    (void)client.call("EchoService", "Delay", {{"milliseconds", Value(100)}});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // The retrying client's own backoff is ~1ms; only the server's 250ms
  // Retry-After floor can make the replay wait out the 100ms blocker.
  ClientOptions retrying;
  retrying.retry.max_attempts = 2;
  retrying.retry.initial_backoff = std::chrono::milliseconds(1);
  retrying.retry.jitter = 0.0;
  SpiClient client(transport_, server.endpoint(), retrying);
  auto start = std::chrono::steady_clock::now();
  auto outcome = client.call("EchoService", "Echo", {{"data", Value("x")}});
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_GE(elapsed, std::chrono::milliseconds(200))
      << "replay must not fire before the server's Retry-After floor";
}

TEST_F(OverloadTest, AdaptiveLimiterShedsUnderSaturation) {
  ServerOptions options;
  AdaptiveLimiterOptions adaptive;
  adaptive.min_limit = 1;
  adaptive.max_limit = 2;
  adaptive.initial_limit = 1;
  adaptive.window = 1'000'000;  // hold the limit at 1 for the whole test
  options.adaptive_limit = adaptive;
  options.protocol_threads = 16;
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());

  std::atomic<int> ok_count{0}, shed_count{0};
  {
    std::vector<std::jthread> clients;
    for (int t = 0; t < 6; ++t) {
      clients.emplace_back([&] {
        SpiClient client(transport_, server.endpoint());
        auto outcome = client.call("EchoService", "Delay",
                                   {{"milliseconds", Value(50)}});
        if (outcome.ok()) {
          ++ok_count;
        } else {
          EXPECT_NE(
              outcome.error().message().find("adaptive concurrency limit"),
              std::string::npos)
              << outcome.error().message();
          EXPECT_EQ(resilience::fault_cause(outcome.error()),
                    ErrorCode::kCapacityExceeded);
          ++shed_count;
        }
      });
    }
  }
  EXPECT_EQ(ok_count.load() + shed_count.load(), 6);
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(shed_count.load(), 1);
  EXPECT_EQ(server.stats().adaptive_shed,
            static_cast<std::uint64_t>(shed_count.load()));
}

}  // namespace
}  // namespace spi::core
