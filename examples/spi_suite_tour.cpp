// Tour of the SPI interfaces beyond basic packing:
//   * remote execution — a dependent reserve->authorize->confirm chain
//     runs server-side in ONE message (core/remote_plan.hpp)
//   * automatic batching — plain single calls, transparently coalesced
//     (core/auto_batcher.hpp, the paper's §5 future work)
//   * live WSDL — GET /{service}?wsdl straight from the running container
//
//   $ ./examples/spi_suite_tour
#include <cstdio>

#include "core/auto_batcher.hpp"
#include "core/server.hpp"
#include "http/client.hpp"
#include "net/sim_transport.hpp"
#include "services/airline.hpp"
#include "services/creditcard.hpp"
#include "services/weather.hpp"
#include "soap/wsdl.hpp"

using namespace spi;
using soap::Value;

int main() {
  net::SimTransport transport(net::LinkParams::ethernet_100mbit());

  core::ServiceRegistry registry;
  services::register_weather_service(registry);
  auto airlines = services::make_demo_airlines(/*seed=*/99);
  for (auto& airline : airlines) airline->register_with(registry);
  services::CreditCardService card("CardGate", /*seed=*/99);
  card.register_with(registry);

  core::SpiServer server(transport, net::Endpoint{"container", 80}, registry);
  if (!server.start().ok()) return 1;
  core::SpiClient client(transport, server.endpoint());

  // --- 1. remote execution ---------------------------------------------------
  std::printf("== remote execution: 3 dependent calls, 1 message ==\n");
  core::RemotePlan plan;
  plan.step("NimbusAir", "Reserve",
            {core::PlanArg::value("flight_id", Value("NB-9"))})
      .step("CardGate", "Authorize",
            {core::PlanArg::value("card_number", Value("4111111111111111")),
             core::PlanArg::ref("amount_cents", 0, "price_cents")})
      .step("NimbusAir", "ConfirmReservation",
            {core::PlanArg::ref("reservation_id", 0, "reservation_id"),
             core::PlanArg::ref("authorization_id", 1, "authorization_id")});
  auto outcomes = client.execute_plan(plan);
  if (!outcomes.ok()) {
    std::fprintf(stderr, "plan failed: %s\n",
                 outcomes.error().to_string().c_str());
    return 1;
  }
  std::printf("reservation: %s\n",
              std::string(outcomes.value()[0]
                              .value()
                              .field("reservation_id")
                              ->as_string())
                  .c_str());
  std::printf("authorized : %s\n",
              std::string(outcomes.value()[1]
                              .value()
                              .field("authorization_id")
                              ->as_string())
                  .c_str());
  std::printf("confirmed  : %s\n\n",
              outcomes.value()[2].value().as_bool() ? "yes" : "no");

  // --- 2. automatic batching -------------------------------------------------
  std::printf("== automatic batching: plain calls, packed wire traffic ==\n");
  core::AutoBatcher::Options batch_options;
  batch_options.max_batch = 8;
  batch_options.max_delay = std::chrono::milliseconds(1);
  core::AutoBatcher batcher(client, batch_options);
  std::vector<std::future<core::CallOutcome>> futures;
  for (const char* city : {"Beijing", "Shanghai", "Honolulu", "Seattle"}) {
    futures.push_back(
        batcher.call_async("WeatherService", "GetWeather",
                           {{"city", Value(city)}}));
  }
  for (auto& future : futures) {
    auto outcome = future.get();
    if (outcome.ok()) {
      std::printf("%-10s %s\n",
                  std::string(outcome.value().field("city")->as_string())
                      .c_str(),
                  std::string(outcome.value().field("condition")->as_string())
                      .c_str());
    }
  }
  auto stats = batcher.stats();
  std::printf("%llu calls travelled in %llu envelope(s)\n\n",
              static_cast<unsigned long long>(stats.calls),
              static_cast<unsigned long long>(stats.batches));

  // --- 3. live WSDL ------------------------------------------------------------
  std::printf("== WSDL from the running container ==\n");
  http::HttpClient http(transport, server.endpoint());
  http::Request wsdl_request;
  wsdl_request.method = "GET";
  wsdl_request.target = "/WeatherService?wsdl";
  auto wsdl_response = http.send(std::move(wsdl_request));
  if (wsdl_response.ok() && wsdl_response.value().status == 200) {
    auto description = soap::parse_wsdl(wsdl_response.value().body);
    if (description.ok()) {
      std::printf("service %s at %s exposes:\n",
                  description.value().name.c_str(),
                  description.value().endpoint_url.c_str());
      for (const auto& operation : description.value().operations) {
        std::printf("  - %s\n", operation.name.c_str());
      }
    }
  }

  // --- 4. telemetry: /healthz + a /metrics scrape ------------------------------
  std::printf("\n== telemetry from the running container ==\n");
  http::Request health_request;
  health_request.method = "GET";
  health_request.target = "/healthz";
  auto health = http.send(std::move(health_request));
  if (health.ok()) {
    std::printf("GET /healthz -> %d %s\n", health.value().status,
                health.value().body.c_str());
  }
  http::Request metrics_request;
  metrics_request.method = "GET";
  metrics_request.target = "/metrics";
  auto metrics = http.send(std::move(metrics_request));
  if (metrics.ok()) {
    // The full scrape is long; elide the per-bucket histogram lines.
    std::printf("GET /metrics (histogram buckets elided):\n");
    std::string_view body = metrics.value().body;
    while (!body.empty()) {
      size_t newline = body.find('\n');
      std::string_view line = body.substr(0, newline);
      body = newline == std::string_view::npos ? std::string_view{}
                                               : body.substr(newline + 1);
      if (line.starts_with('#')) continue;
      if (line.find("_bucket") != std::string_view::npos) continue;
      std::printf("  %.*s\n", static_cast<int>(line.size()), line.data());
    }
  }

  server.stop();
  return 0;
}
