// End-to-end telemetry on SpiServer over SimTransport: the /metrics
// Prometheus scrape, /healthz admission flip, and trace-id propagation
// from client injection through packed fan-out into handler CallContexts
// and back out in the response envelope (DESIGN.md §9). The async HTTP
// client's views are scraped over TCP loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "benchsupport/workload.hpp"
#include "common/buffer_pool.hpp"
#include "concurrency/wait_group.hpp"
#include "core/call_context.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "services/echo.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {
namespace {

using soap::Value;

class TelemetryServerTest : public ::testing::Test {
 protected:
  void SetUp() override { services::register_echo_service(registry_); }

  http::Response get(const net::Endpoint& server, std::string target) {
    http::HttpClient http(transport_, server);
    http::Request request;
    request.method = "GET";
    request.target = std::move(target);
    auto response = http.send(std::move(request));
    EXPECT_TRUE(response.ok()) << response.error().to_string();
    return response.ok() ? std::move(response).value() : http::Response{};
  }

  net::SimTransport transport_;
  ServiceRegistry registry_;
};

TEST_F(TelemetryServerTest, MetricsScrapeCoversEveryLayer) {
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_);
  ASSERT_TRUE(server.start().ok());

  // Exactly one packed message carrying 4 calls.
  SpiClient client(transport_, server.endpoint());
  auto calls = bench::make_echo_calls(4, 16, /*seed=*/7);
  EXPECT_EQ(bench::count_echo_errors(calls, client.call_packed(calls)), 0u);

  http::Response scrape = get(server.endpoint(), "/metrics");
  EXPECT_EQ(scrape.status, 200);
  EXPECT_NE(scrape.headers.get("Content-Type")
                .value_or("")
                .find("text/plain"),
            std::string::npos);
  const std::string& text = scrape.body;

  // Stage spans: one message went through parse/execute/assemble.
  EXPECT_NE(text.find("# TYPE spi_server_stage_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("spi_server_stage_seconds_count{stage=\"parse\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("spi_server_stage_seconds_count{stage=\"execute\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("spi_server_stage_seconds_count{stage=\"assemble\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("spi_http_read_seconds_count "), std::string::npos);

  // Fan-out width: one observation of 4 (lands in the le=5 ladder rung).
  EXPECT_NE(text.find("spi_server_fanout_width_bucket{le=\"5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("spi_server_fanout_width_count 1\n"),
            std::string::npos);

  // Stage pools: queue depth and worker gauges for both stages.
  EXPECT_NE(text.find("spi_pool_queue_depth{pool=\"application\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("spi_pool_queue_depth{pool=\"http-protocol\"} "),
            std::string::npos);
  EXPECT_NE(text.find("spi_pool_active_workers{pool=\"application\"} "),
            std::string::npos);
  EXPECT_NE(
      text.find("spi_pool_tasks_completed_total{pool=\"application\"} 4\n"),
      std::string::npos);

  // Dispatcher/assembler registry-backed views.
  EXPECT_NE(text.find("spi_dispatcher_calls_total{side=\"server\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("spi_assembler_envelopes_total{side=\"server\"} 1\n"),
            std::string::npos);

  // Wire bytes flowed, admission never rejected, nothing in flight now.
  EXPECT_NE(text.find("spi_net_bytes_sent_total "), std::string::npos);
  EXPECT_EQ(text.find("spi_net_bytes_sent_total 0\n"), std::string::npos);
  EXPECT_NE(text.find("spi_net_bytes_received_total "), std::string::npos);
  EXPECT_NE(text.find("spi_server_admission_rejections_total 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("spi_server_in_flight 0\n"), std::string::npos);

  // The buffer pool's process-wide counts. Every buffer this test uses
  // lies below the pool's floor, so they cannot move between the scrape
  // and stats().
  const buffer_pool::Stats pool = buffer_pool::stats();
  const std::pair<std::string, std::uint64_t> pool_series[] = {
      {"spi_buffer_pool_reused_total", pool.reused},
      {"spi_buffer_pool_fresh_total", pool.fresh},
      {"spi_buffer_pool_kept_total", pool.kept},
      {"spi_buffer_pool_freed_total", pool.freed},
      {"spi_buffer_pool_idle_bytes", pool.idle_bytes},
  };
  for (const auto& [name, value] : pool_series) {
    const size_t help = text.find("# HELP " + name + " ");
    ASSERT_NE(help, std::string::npos) << name;
    EXPECT_NE(text.substr(help, text.find('\n', help) - help)
                  .find("(process-wide)"),
              std::string::npos)
        << name;
    EXPECT_NE(text.find(name + " " + std::to_string(value) + "\n"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(text.find("# TYPE spi_buffer_pool_idle_bytes gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE spi_buffer_pool_kept_total counter\n"),
            std::string::npos);
}

// The async HTTP client's views bound into a server's registry, over TCP
// loopback (the async client needs pollable connections): after N
// completed exchanges the scrape counts N requests and none in flight.
TEST(AsyncClientMetricsTest, ScrapeCountsExchangesAndNoneInFlight) {
  net::TcpTransport transport;
  ServiceRegistry registry;
  SpiServer server(transport, net::Endpoint{"127.0.0.1", 0}, registry);
  ASSERT_TRUE(server.start().ok());
  Reactor reactor;
  reactor.start();
  http::AsyncHttpClient client(reactor, transport);
  client.bind_metrics(server.metrics());

  constexpr int kExchanges = 5;
  for (int i = 0; i < kExchanges; ++i) {
    http::Request request;
    request.method = "GET";
    request.target = "/healthz";
    auto response = client
                        .send_future(server.endpoint(), std::move(request),
                                     std::chrono::seconds(5))
                        .get();
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    EXPECT_EQ(response.value().status, 200);
  }

  // Scraped by another client, so the scrape is not an exchange of its own.
  http::HttpClient scraper(transport, server.endpoint());
  http::Request request;
  request.method = "GET";
  request.target = "/metrics";
  auto scrape = scraper.send(std::move(request));
  ASSERT_TRUE(scrape.ok()) << scrape.error().to_string();
  const std::string& text = scrape.value().body;
  EXPECT_NE(text.find("spi_async_client_requests_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spi_async_client_inflight 0\n"), std::string::npos);
  server.stop();
}

TEST_F(TelemetryServerTest, HealthzFlipsTo503WhileSaturated) {
  CountdownLatch entered(1);
  CountdownLatch release(1);
  ASSERT_TRUE(registry_
                  .register_operation(
                      "BlockService", "Block",
                      [&](const soap::Struct&) -> Result<Value> {
                        entered.count_down();
                        release.wait();
                        return Value(1);
                      })
                  .ok());

  ServerOptions options;
  options.max_concurrent_messages = 1;
  options.protocol_threads = 4;
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());

  http::Response healthy = get(server.endpoint(), "/healthz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthy.body.find("\"max_concurrent_messages\":1"),
            std::string::npos);

  // Occupy the single admission slot with a handler parked on a latch.
  std::jthread blocked([&] {
    SpiClient client(transport_, server.endpoint());
    EXPECT_TRUE(client.call("BlockService", "Block", {}).ok());
  });
  entered.wait();

  http::Response saturated = get(server.endpoint(), "/healthz");
  EXPECT_EQ(saturated.status, 503);
  EXPECT_NE(saturated.body.find("\"status\":\"overloaded\""),
            std::string::npos);
  EXPECT_NE(saturated.body.find("\"in_flight\":1"), std::string::npos);

  // A message arriving now is shed, and the rejection shows in /metrics.
  SpiClient client(transport_, server.endpoint());
  auto shed = client.call("EchoService", "Echo", {{"data", Value("x")}});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code(), ErrorCode::kFault);
  EXPECT_NE(get(server.endpoint(), "/metrics")
                .body.find("spi_server_admission_rejections_total 1\n"),
            std::string::npos);

  release.count_down();
  blocked.join();

  http::Response recovered = get(server.endpoint(), "/healthz");
  EXPECT_EQ(recovered.status, 200);
  EXPECT_NE(recovered.body.find("\"admission_rejections\":1"),
            std::string::npos);
}

TEST_F(TelemetryServerTest, HardeningInstrumentsAreExposed) {
  ServerOptions options;
  options.envelope_limits.max_fanout = 2;
  AdaptiveLimiterOptions adaptive;
  adaptive.initial_limit = 4;
  options.adaptive_limit = adaptive;
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_,
                   options);
  ASSERT_TRUE(server.start().ok());

  // One call over the fan-out cap -> limit="fan-out" ticks once.
  SpiClient client(transport_, server.endpoint());
  auto calls = bench::make_echo_calls(3, 8, /*seed=*/5);
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[2].ok());

  // A hostile over-deep request (past the default 256 bound) -> a single
  // limit="depth" tick (HTTP 400).
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < 300; ++i) deep += "</a>";
  http::HttpClient http(transport_, server.endpoint());
  auto rejected = http.post("/spi", std::move(deep), "text/xml");
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status, 400);

  const std::string text = get(server.endpoint(), "/metrics").body;
  // Shed accounting by reason, all zero on this healthy run...
  EXPECT_NE(text.find("spi_admission_shed_total{reason=\"draining\"} 0\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("spi_admission_shed_total{reason=\"concurrency-limit\"} 0\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("spi_admission_shed_total{reason=\"adaptive-limit\"} 0\n"),
      std::string::npos);
  EXPECT_NE(text.find("spi_admission_shed_total{reason=\"queue-full\"} 0\n"),
            std::string::npos);
  // ...limit rejections attributed to their governed dimension...
  EXPECT_NE(text.find("spi_limit_rejections_total{limit=\"fan-out\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("spi_limit_rejections_total{limit=\"depth\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("spi_limit_rejections_total{limit=\"tokens\"} 0\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("spi_limit_rejections_total{limit=\"body-entries\"} 0\n"),
      std::string::npos);
  // ...and the adaptive limiter's current learned limit as a gauge.
  EXPECT_NE(text.find("spi_admission_adaptive_limit 4\n"), std::string::npos)
      << text;

  EXPECT_EQ(server.stats().limit_rejections, 1u);  // depth (whole message)
  EXPECT_EQ(server.stats().dispatcher.limit_rejected_calls, 1u);  // fan-out
}

TEST_F(TelemetryServerTest, PackedFanOutSharesOneTraceAcrossCallContexts) {
  struct Capture {
    std::string trace_id;
    std::string parent_id;
    std::uint32_t call_id = 0;
    size_t fanout = 0;
  };
  std::mutex mutex;
  std::vector<Capture> captures;
  ASSERT_TRUE(registry_
                  .register_operation(
                      "TraceService", "Capture",
                      [&](const soap::Struct&) -> Result<Value> {
                        Capture capture;
                        if (const CallContext* context =
                                current_call_context()) {
                          capture.trace_id = context->trace.trace_id;
                          capture.parent_id = context->trace.parent_id;
                          capture.call_id = context->call_id;
                          capture.fanout = context->fanout;
                        }
                        std::lock_guard lock(mutex);
                        captures.push_back(std::move(capture));
                        return Value(1);
                      })
                  .ok());

  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport_, server.endpoint());

  constexpr size_t kFanout = 8;
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < kFanout; ++i) {
    calls.push_back(make_call("TraceService", "Capture", {}));
  }
  auto outcomes = client.call_packed(calls);
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }

  std::lock_guard lock(mutex);
  ASSERT_EQ(captures.size(), kFanout);
  // One message, one trace: every concurrently-executing sibling saw the
  // same 32-hex id the client injected.
  EXPECT_EQ(captures.front().trace_id.size(), 32u);
  std::set<std::uint32_t> ids;
  for (const Capture& capture : captures) {
    EXPECT_EQ(capture.trace_id, captures.front().trace_id);
    EXPECT_EQ(capture.fanout, kFanout);
    ids.insert(capture.call_id);
  }
  EXPECT_EQ(ids.size(), kFanout);  // distinct call ids 0..M-1
}

TEST_F(TelemetryServerTest, ResponseEnvelopeEchoesTheRequestTrace) {
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_);
  ASSERT_TRUE(server.start().ok());

  // Hand-roll the request so the injected trace is known exactly.
  telemetry::TraceContext trace = telemetry::TraceContext::generate();
  Assembler assembler(nullptr, PackCostModel{});
  auto calls = bench::make_echo_calls(3, 8, /*seed=*/11);
  std::string envelope;
  {
    telemetry::TraceScope scope(trace);
    envelope = assembler.assemble_request(calls, PackMode::kPacked).flatten();
  }
  EXPECT_NE(envelope.find("<spi:TraceId>" + trace.trace_id),
            std::string::npos);

  http::HttpClient http(transport_, server.endpoint());
  auto response = http.post("/spi", std::move(envelope));
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 200);

  auto parsed = soap::Envelope::parse(response.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  auto echoed =
      telemetry::TraceContext::from_header_blocks(parsed.value().header_blocks);
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->trace_id, trace.trace_id);
  EXPECT_EQ(echoed->parent_id, trace.parent_id);
}

TEST_F(TelemetryServerTest, TracePropagationCanBeDisabled) {
  SpiServer server(transport_, net::Endpoint{"server", 80}, registry_);
  ASSERT_TRUE(server.start().ok());

  ClientOptions options;
  options.trace_propagation = false;
  SpiClient client(transport_, server.endpoint(), options);
  auto outcome = client.call("EchoService", "Echo", {{"data", Value("x")}});
  ASSERT_TRUE(outcome.ok());
}

}  // namespace
}  // namespace spi::core
