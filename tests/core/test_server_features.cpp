// Server-side web-service features beyond the SPI core: the ?wsdl
// description endpoint and chunked request handling end to end.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/server.hpp"
#include "http/client.hpp"
#include "net/sim_transport.hpp"
#include "services/echo.hpp"
#include "services/weather.hpp"
#include "soap/wsdl.hpp"

namespace spi::core {
namespace {

using soap::Value;

class ServerFeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    services::register_echo_service(registry_);
    services::register_weather_service(registry_);
    server_ = std::make_unique<SpiServer>(transport_,
                                          net::Endpoint{"server", 80},
                                          registry_);
    ASSERT_TRUE(server_->start().ok());
  }

  net::SimTransport transport_;
  ServiceRegistry registry_;
  std::unique_ptr<SpiServer> server_;
};

TEST_F(ServerFeaturesTest, WsdlEndpointServesParseableDescription) {
  http::HttpClient http(transport_, server_->endpoint());
  http::Request request;
  request.method = "GET";
  request.target = "/WeatherService?wsdl";
  auto response = http.send(std::move(request));
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  ASSERT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().headers.get("Content-Type"), "text/xml");

  auto description = soap::parse_wsdl(response.value().body);
  ASSERT_TRUE(description.ok()) << description.error().to_string();
  EXPECT_EQ(description.value().name, "WeatherService");
  ASSERT_EQ(description.value().operations.size(), 2u);
  EXPECT_EQ(description.value().operations[0].name, "GetWeather");
  EXPECT_NE(description.value().endpoint_url.find("server:80"),
            std::string::npos);
}

TEST_F(ServerFeaturesTest, WsdlForUnknownServiceIs404) {
  http::HttpClient http(transport_, server_->endpoint());
  http::Request request;
  request.method = "GET";
  request.target = "/GhostService?wsdl";
  auto response = http.send(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 404);
}

TEST_F(ServerFeaturesTest, PlainGetIsStill405) {
  http::HttpClient http(transport_, server_->endpoint());
  http::Request request;
  request.method = "GET";
  request.target = "/spi";
  auto response = http.send(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 405);
}

TEST_F(ServerFeaturesTest, ChunkedRequestsServeNormally) {
  ClientOptions options;
  options.http_limits = {};
  SpiClient client(transport_, server_->endpoint(), options);
  // Chunked framing lives in http::ClientOptions; drive it via HttpClient
  // to prove the server-side parser path end to end.
  http::ClientOptions chunked;
  chunked.chunked_request_bytes = 16;
  http::HttpClient http(transport_, server_->endpoint(), chunked);

  // Hand-build the SOAP request the SpiClient would send.
  Assembler assembler;
  std::vector<ServiceCall> calls = {make_call(
      "EchoService", "Echo", {{"data", Value(std::string(500, 'c'))}})};
  std::string envelope =
      assembler.assemble_request(calls, PackMode::kSingle).flatten();
  auto response = http.post("/spi", std::move(envelope), "text/xml");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_NE(response.value().body.find(std::string(100, 'c')),
            std::string::npos);
}

TEST(ChunkedSerializationTest, RoundTripsThroughParser) {
  http::Request request;
  request.method = "POST";
  request.target = "/spi";
  request.body = "0123456789abcdef0123456789";  // not a multiple of chunk
  std::string wire = request.serialize_chunked(8);
  EXPECT_NE(wire.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);

  http::MessageParser parser(http::MessageParser::Mode::kRequest);
  parser.feed(wire);
  auto parsed = parser.poll_request();
  ASSERT_TRUE(parsed.has_value()) << (parser.failed()
                                          ? parser.error().to_string()
                                          : "incomplete");
  EXPECT_EQ(parsed->body, request.body);
}

TEST(ChunkedSerializationTest, EmptyBodyIsJustTerminalChunk) {
  http::Request request;
  request.body.clear();
  std::string wire = request.serialize_chunked(8);
  http::MessageParser parser(http::MessageParser::Mode::kRequest);
  parser.feed(wire);
  auto parsed = parser.poll_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->body.empty());
}

}  // namespace
}  // namespace spi::core
