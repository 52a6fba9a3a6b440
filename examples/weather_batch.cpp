// The paper's Figure 4 scenario, end to end: a client queries the weather
// for many cities against a WeatherService. Run both ways — one SOAP
// message per city (traditional) and all cities packed into one
// Parallel_Method message — and compare wire traffic and latency on the
// simulated 100 Mbit testbed link.
//
//   $ ./examples/weather_batch
#include <cstdio>

#include "common/clock.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "services/weather.hpp"

using namespace spi;

namespace {

void print_forecast(const soap::Value& forecast) {
  std::printf("  %-10s %-14s %3lld C  %3lld%% humidity\n",
              std::string(forecast.field("city")->as_string()).c_str(),
              std::string(forecast.field("condition")->as_string()).c_str(),
              static_cast<long long>(
                  forecast.field("temperature_c")->as_int()),
              static_cast<long long>(
                  forecast.field("humidity_pct")->as_int()));
}

}  // namespace

int main() {
  // The paper's testbed: client and server on a 100 Mbit Ethernet link.
  net::SimTransport transport(net::LinkParams::ethernet_100mbit());

  core::ServiceRegistry registry;
  services::register_weather_service(registry);
  core::SpiServer server(transport, net::Endpoint{"weather-node", 80},
                         registry);
  if (!server.start().ok()) return 1;

  core::SpiClient client(transport, server.endpoint());

  // Which cities? Ask the service (a traditional single call).
  core::CallOutcome cities = client.call("WeatherService", "ListCities");
  if (!cities.ok()) {
    std::fprintf(stderr, "ListCities failed: %s\n",
                 cities.error().to_string().c_str());
    return 1;
  }

  std::vector<core::ServiceCall> queries;
  for (const soap::Value& city : cities.value().as_array()) {
    queries.push_back(core::make_call("WeatherService", "GetWeather",
                                      {{"city", city}}));
  }
  std::printf("querying %zu cities...\n\n", queries.size());

  // --- traditional: one SOAP message per city -------------------------------
  transport.reset_stats();
  Stopwatch serial_watch;
  auto serial_outcomes = client.call_serial(queries);
  double serial_ms = serial_watch.elapsed_ms();
  auto serial_wire = transport.stats();

  // --- SPI pack interface: ONE SOAP message for all cities ------------------
  transport.reset_stats();
  Stopwatch packed_watch;
  auto packed_outcomes = client.call_packed(queries);
  double packed_ms = packed_watch.elapsed_ms();
  auto packed_wire = transport.stats();

  std::printf("forecasts (from the packed exchange):\n");
  for (const core::CallOutcome& outcome : packed_outcomes) {
    if (outcome.ok()) print_forecast(outcome.value());
  }

  // Cross-check: both strategies must agree.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!(serial_outcomes[i].ok() && packed_outcomes[i].ok() &&
          serial_outcomes[i].value() == packed_outcomes[i].value())) {
      std::fprintf(stderr, "strategy mismatch at %zu!\n", i);
      return 1;
    }
  }

  std::printf("\n%-22s %12s %12s %14s\n", "", "connections", "bytes sent",
              "latency (ms)");
  std::printf("%-22s %12llu %12llu %14.2f\n", "one message per city",
              static_cast<unsigned long long>(serial_wire.connections_opened),
              static_cast<unsigned long long>(serial_wire.bytes_sent),
              serial_ms);
  std::printf("%-22s %12llu %12llu %14.2f\n", "packed (SPI)",
              static_cast<unsigned long long>(packed_wire.connections_opened),
              static_cast<unsigned long long>(packed_wire.bytes_sent),
              packed_ms);
  std::printf("\npacking was %.1fx faster and used %llu fewer connections\n",
              serial_ms / packed_ms,
              static_cast<unsigned long long>(
                  serial_wire.connections_opened -
                  packed_wire.connections_opened));

  server.stop();
  return 0;
}
