// End-to-end integration: SpiClient <-> SpiServer over both transports,
// covering the three strategies, per-call faults, packing at M=1, the
// Batch future interface, WS-Security, and staged-vs-coupled servers.
#include <gtest/gtest.h>

#include "benchsupport/workload.hpp"
#include "core/client.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "resilience/retry.hpp"
#include "services/echo.hpp"
#include "services/weather.hpp"

namespace spi {
namespace {

using core::CallOutcome;
using core::ServiceCall;
using soap::Value;

class SpiEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    services::register_echo_service(registry_);
    services::register_weather_service(registry_);
    server_ = std::make_unique<core::SpiServer>(
        transport_, net::Endpoint{"server", 80}, registry_);
    ASSERT_TRUE(server_->start().ok());
    client_ = std::make_unique<core::SpiClient>(transport_,
                                                server_->endpoint());
  }

  net::SimTransport transport_;  // instant link
  core::ServiceRegistry registry_;
  std::unique_ptr<core::SpiServer> server_;
  std::unique_ptr<core::SpiClient> client_;
};

TEST_F(SpiEndToEndTest, SingleCallRoundTrip) {
  CallOutcome outcome =
      client_->call("EchoService", "Echo", {{"data", Value("hello spi")}});
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().as_string(), "hello spi");
}

TEST_F(SpiEndToEndTest, SingleCallUnknownServiceFaults) {
  CallOutcome outcome = client_->call("NoSuchService", "Echo", {});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kFault);
  EXPECT_NE(outcome.error().message().find("NoSuchService"),
            std::string::npos);
}

TEST_F(SpiEndToEndTest, SerialStrategyReturnsAllInOrder) {
  auto calls = bench::make_echo_calls(8, 32, /*seed=*/1);
  auto outcomes = client_->call_serial(calls);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);
}

TEST_F(SpiEndToEndTest, MultithreadedStrategyReturnsAllInOrder) {
  auto calls = bench::make_echo_calls(16, 64, /*seed=*/2);
  auto outcomes = client_->call_multithreaded(calls);
  ASSERT_EQ(outcomes.size(), 16u);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);
}

TEST_F(SpiEndToEndTest, PackedStrategyReturnsAllInOrder) {
  auto calls = bench::make_echo_calls(16, 64, /*seed=*/3);
  auto outcomes = client_->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 16u);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);

  // The whole batch crossed in ONE SOAP message each way.
  auto stats = client_->stats();
  EXPECT_EQ(stats.assembler.envelopes, 1u);
  EXPECT_EQ(stats.assembler.packed_envelopes, 1u);
  EXPECT_EQ(stats.assembler.calls, 16u);
}

TEST_F(SpiEndToEndTest, PackedSingleCallWorks) {
  auto calls = bench::make_echo_calls(1, 10, /*seed=*/4);
  auto outcomes = client_->call_packed(calls, core::PackMode::kPacked);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);
}

TEST_F(SpiEndToEndTest, PackedFaultIsPerCallNotGlobal) {
  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("EchoService", "Echo",
                                  {{"data", Value("ok-1")}}));
  calls.push_back(core::make_call("EchoService", "NoSuchOperation", {}));
  calls.push_back(core::make_call("EchoService", "Echo",
                                  {{"data", Value("ok-3")}}));

  auto outcomes = client_->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].value().as_string(), "ok-1");
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].error().code(), ErrorCode::kFault);
  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_EQ(outcomes[2].value().as_string(), "ok-3");
}

TEST_F(SpiEndToEndTest, PackedMixedServicesInOneMessage) {
  // The paper's Figure 4 scenario: two weather queries in one message —
  // plus an echo, proving packing is not per-service.
  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("WeatherService", "GetWeather",
                                  {{"city", Value("Beijing")}}));
  calls.push_back(core::make_call("WeatherService", "GetWeather",
                                  {{"city", Value("Shanghai")}}));
  calls.push_back(
      core::make_call("EchoService", "Echo", {{"data", Value("x")}}));

  auto outcomes = client_->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 3u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error().to_string();
  EXPECT_EQ(outcomes[0].value().field("city")->as_string(), "Beijing");
  ASSERT_TRUE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].value().field("city")->as_string(), "Shanghai");
  ASSERT_TRUE(outcomes[2].ok());
}

TEST_F(SpiEndToEndTest, BatchFuturesCompleteIndividually) {
  auto batch = client_->create_batch();
  auto beijing = batch.add("WeatherService", "GetWeather",
                           {{"city", Value("Beijing")}});
  auto bad = batch.add("WeatherService", "GetWeather",
                       {{"city", Value("Atlantis")}});
  auto shanghai = batch.add("WeatherService", "GetWeather",
                            {{"city", Value("Shanghai")}});
  EXPECT_EQ(batch.size(), 3u);
  batch.execute();

  CallOutcome b = beijing.get();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().field("condition")->as_string(), "Sunny");

  CallOutcome a = bad.get();
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.error().code(), ErrorCode::kFault);

  CallOutcome s = shanghai.get();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().field("city")->as_string(), "Shanghai");
}

TEST_F(SpiEndToEndTest, BatchAddAfterExecuteThrows) {
  auto batch = client_->create_batch();
  batch.add("EchoService", "Echo", {{"data", Value("x")}});
  batch.execute();
  EXPECT_THROW(batch.add("EchoService", "Echo", {}), SpiError);
  EXPECT_THROW(batch.execute(), SpiError);
}

TEST_F(SpiEndToEndTest, EmptyBatchExecuteIsNoOp) {
  auto batch = client_->create_batch();
  EXPECT_NO_THROW(batch.execute());
}

TEST_F(SpiEndToEndTest, KeepAliveSerialCallsReuseOneConnection) {
  transport_.reset_stats();
  core::ClientOptions options;
  options.keep_alive = true;
  core::SpiClient client(transport_, server_->endpoint(), options);
  auto calls = bench::make_echo_calls(6, 16, /*seed=*/21);
  EXPECT_EQ(bench::count_echo_errors(calls, client.call_serial(calls)), 0u);
  EXPECT_EQ(transport_.stats().connections_opened, 1u);

  // Default (paper-faithful) client: one connection per message.
  transport_.reset_stats();
  core::SpiClient fresh(transport_, server_->endpoint());
  EXPECT_EQ(bench::count_echo_errors(calls, fresh.call_serial(calls)), 0u);
  EXPECT_EQ(transport_.stats().connections_opened, 6u);
}

TEST_F(SpiEndToEndTest, ConnectToUnboundEndpointFails) {
  core::SpiClient stray(transport_, net::Endpoint{"nowhere", 9});
  CallOutcome outcome = stray.call("EchoService", "Echo", {});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kConnectionFailed);
}

TEST_F(SpiEndToEndTest, LargePayloadRoundTrips) {
  auto calls = bench::make_echo_calls(4, 100'000, /*seed=*/7);
  auto outcomes = client_->call_packed(calls);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);
}

TEST_F(SpiEndToEndTest, ServerStatsCountPackedTraffic) {
  auto calls = bench::make_echo_calls(5, 16, /*seed=*/8);
  (void)client_->call_packed(calls);
  (void)client_->call("EchoService", "Echo", {{"data", Value("x")}});

  auto stats = server_->stats();
  EXPECT_EQ(stats.dispatcher.envelopes, 2u);
  EXPECT_EQ(stats.dispatcher.packed_envelopes, 1u);
  EXPECT_EQ(stats.dispatcher.calls_dispatched, 6u);
  EXPECT_EQ(stats.http_requests, 2u);
  // Staged server: every call ran on the application pool.
  EXPECT_EQ(stats.application_tasks, 6u);
}

// --- coupled (Figure 1) server ---------------------------------------------

TEST(SpiCoupledServerTest, CoupledModeServesPackedMessages) {
  net::SimTransport transport;
  core::ServiceRegistry registry;
  services::register_echo_service(registry);
  core::ServerOptions options;
  options.staged = false;  // Figure 1: protocol thread runs the handlers
  core::SpiServer server(transport, net::Endpoint{"server", 80}, registry,
                         options);
  ASSERT_TRUE(server.start().ok());
  core::SpiClient client(transport, server.endpoint());

  auto calls = bench::make_echo_calls(6, 20, /*seed=*/9);
  auto outcomes = client.call_packed(calls);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);
  EXPECT_EQ(server.stats().application_tasks, 0u);  // no app pool exists
}

// --- a handler that throws a non-std::exception -------------------------------

/// Param: ServerOptions::staged. Neither an application-stage worker nor
/// the coupled protocol thread may let the throw end the process.
class ThrowingHandlerTest : public ::testing::TestWithParam<bool> {};

TEST_P(ThrowingHandlerTest, FaultsOnlyItsCallAndServerKeepsServing) {
  net::SimTransport transport;
  core::ServiceRegistry registry;
  services::register_echo_service(registry);
  ASSERT_TRUE(registry
                  .register_operation("Thrower", "Throw",
                                      [](const soap::Struct&) -> Result<Value> {
                                        throw 42;
                                      })
                  .ok());
  core::ServerOptions options;
  options.staged = GetParam();
  core::SpiServer server(transport, net::Endpoint{"server", 80}, registry,
                         options);
  ASSERT_TRUE(server.start().ok());
  core::SpiClient client(transport, server.endpoint());

  const std::vector<ServiceCall> calls = {
      core::make_call("EchoService", "Echo", {{"data", Value("sibling")}}),
      core::make_call("Thrower", "Throw")};
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error().to_string();
  EXPECT_EQ(outcomes[0].value().as_string(), "sibling");
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_EQ(resilience::fault_cause(outcomes[1].error()),
            ErrorCode::kInternal);
  EXPECT_NE(outcomes[1].error().message().find("Thrower.Throw threw"),
            std::string::npos)
      << outcomes[1].error().message();

  auto next = bench::make_echo_calls(4, 16, /*seed=*/10);
  EXPECT_EQ(bench::count_echo_errors(next, client.call_packed(next)), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothArchitectures, ThrowingHandlerTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "Staged" : "Coupled";
                         });

// --- WS-Security ------------------------------------------------------------

class SpiWsseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    services::register_echo_service(registry_);
    core::ServerOptions options;
    options.wsse = soap::WsseCredentials{"grid-user", "s3cret"};
    server_ = std::make_unique<core::SpiServer>(
        transport_, net::Endpoint{"server", 80}, registry_, options);
    ASSERT_TRUE(server_->start().ok());
  }

  net::SimTransport transport_;
  core::ServiceRegistry registry_;
  std::unique_ptr<core::SpiServer> server_;
};

TEST_F(SpiWsseTest, AuthorizedClientSucceeds) {
  core::ClientOptions options;
  options.wsse = soap::WsseCredentials{"grid-user", "s3cret"};
  core::SpiClient client(transport_, server_->endpoint(), options);

  auto outcome = client.call("EchoService", "Echo", {{"data", Value("hi")}});
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().as_string(), "hi");

  // Packed batches carry ONE Security header for all M calls.
  auto calls = bench::make_echo_calls(4, 8, /*seed=*/10);
  auto outcomes = client.call_packed(calls);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);
}

TEST_F(SpiWsseTest, MissingHeaderRejected) {
  core::SpiClient bare(transport_, server_->endpoint());
  auto outcome = bare.call("EchoService", "Echo", {{"data", Value("x")}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kFault);
}

TEST_F(SpiWsseTest, WrongPasswordRejected) {
  core::ClientOptions options;
  options.wsse = soap::WsseCredentials{"grid-user", "wrong"};
  core::SpiClient client(transport_, server_->endpoint(), options);
  auto outcome = client.call("EchoService", "Echo", {{"data", Value("x")}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.error().message().find("digest"), std::string::npos);
}

// --- real TCP loopback -------------------------------------------------------

TEST(SpiTcpIntegrationTest, FullStackOverRealSockets) {
  net::TcpTransport transport;
  core::ServiceRegistry registry;
  services::register_echo_service(registry);
  services::register_weather_service(registry);
  core::SpiServer server(transport, net::Endpoint{"127.0.0.1", 0}, registry);
  ASSERT_TRUE(server.start().ok());
  ASSERT_NE(server.endpoint().port, 0);

  core::SpiClient client(transport, server.endpoint());

  auto single = client.call("WeatherService", "GetWeather",
                            {{"city", Value("Seattle")}});
  ASSERT_TRUE(single.ok()) << single.error().to_string();
  EXPECT_EQ(single.value().field("condition")->as_string(), "Drizzle");

  auto calls = bench::make_echo_calls(12, 512, /*seed=*/11);
  EXPECT_EQ(bench::count_echo_errors(calls, client.call_packed(calls)), 0u);
  EXPECT_EQ(bench::count_echo_errors(calls, client.call_serial(calls)), 0u);
  EXPECT_EQ(bench::count_echo_errors(calls, client.call_multithreaded(calls)),
            0u);
  server.stop();
}

}  // namespace
}  // namespace spi
