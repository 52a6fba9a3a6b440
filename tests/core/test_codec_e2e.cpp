// End-to-end wire-codec coverage (DESIGN.md §14): negotiated compression
// and binary framing between SpiClient and SpiServer, hostile encoded
// bodies at the server boundary, codec renegotiation across a pooled
// keep-alive connection, and the codec telemetry surface.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "benchsupport/workload.hpp"
#include "codec/deflate.hpp"
#include "core/assembler.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "http/client.hpp"
#include "net/sim_transport.hpp"
#include "resilience/retry.hpp"
#include "services/echo.hpp"
#include "soap/envelope.hpp"

namespace spi {
namespace {

using core::CallOutcome;
using soap::Value;

class CodecEndToEndTest : public ::testing::Test {
 protected:
  void start_server(core::ServerOptions options = {}) {
    services::register_echo_service(registry_);
    server_ = std::make_unique<core::SpiServer>(
        transport_, net::Endpoint{"server", 80}, registry_,
        std::move(options));
    ASSERT_TRUE(server_->start().ok());
  }

  std::unique_ptr<core::SpiClient> make_client(
      core::ClientOptions options = {}) {
    return std::make_unique<core::SpiClient>(transport_, server_->endpoint(),
                                             std::move(options));
  }

  /// Raw POST straight at the SPI endpoint, bypassing SpiClient.
  http::Response raw_post(std::string body, const http::Headers& extra) {
    http::HttpClient http(transport_, server_->endpoint(), {});
    auto response = http.post("/spi", std::move(body), "text/xml", &extra);
    EXPECT_TRUE(response.ok()) << response.error().to_string();
    return response.ok() ? std::move(response).value() : http::Response{};
  }

  /// The fault carried in a response body, mapped back to the error model.
  Error fault_error(const http::Response& response) {
    auto envelope = soap::Envelope::parse(response.body);
    EXPECT_TRUE(envelope.ok()) << envelope.error().to_string();
    if (!envelope.ok()) return Error(ErrorCode::kInternal, "no envelope");
    EXPECT_EQ(envelope.value().body_entries.size(), 1u);
    auto fault =
        soap::Fault::from_element(*envelope.value().body_entries.front());
    EXPECT_TRUE(fault.has_value());
    return fault ? fault->to_error()
                 : Error(ErrorCode::kInternal, "no fault");
  }

  std::string sample_envelope() {
    core::Assembler assembler(nullptr, {});
    auto call = core::make_call("EchoService", "Echo",
                                {{"data", Value("codec e2e payload")}});
    return assembler.assemble_request({&call, 1}, core::PackMode::kSingle)
        .flatten();
  }

  net::SimTransport transport_;  // instant link
  core::ServiceRegistry registry_;
  std::unique_ptr<core::SpiServer> server_;
};

TEST_F(CodecEndToEndTest, DeflateBothDirections) {
  start_server();
  core::ClientOptions options;
  options.request_codec = "deflate";
  options.accept_codecs = {"deflate"};
  auto client = make_client(std::move(options));
  auto calls = bench::make_echo_calls_text(8, 512, /*seed=*/11);
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);

  const std::string metrics = server_->metrics().expose();
  EXPECT_NE(metrics.find("spi_codec_decoded_bytes_total{codec=\"deflate\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("spi_codec_encoded_bytes_total{codec=\"deflate\"}"),
            std::string::npos);
  EXPECT_NE(
      metrics.find("spi_codec_negotiations_total{codec=\"deflate\"} 1"),
      std::string::npos);
}

TEST_F(CodecEndToEndTest, BxmlBothDirections) {
  start_server();
  core::ClientOptions options;
  options.request_codec = "bxml";
  options.accept_codecs = {"bxml"};
  auto client = make_client(std::move(options));
  auto calls = bench::make_echo_calls_text(4, 256, /*seed=*/12);
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(bench::count_echo_errors(calls, outcomes), 0u);
}

TEST_F(CodecEndToEndTest, MixedRequestAndResponseCodecs) {
  start_server();
  core::ClientOptions options;
  options.request_codec = "bxml";       // binary out
  options.accept_codecs = {"deflate"};  // compressed back
  auto client = make_client(std::move(options));
  CallOutcome outcome =
      client->call("EchoService", "Echo", {{"data", Value("mixed codecs")}});
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().as_string(), "mixed codecs");
}

TEST_F(CodecEndToEndTest, IdentityClientStillWorksAgainstCodecServer) {
  start_server();
  auto client = make_client();
  CallOutcome outcome =
      client->call("EchoService", "Echo", {{"data", Value("plain text")}});
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().as_string(), "plain text");
}

TEST_F(CodecEndToEndTest, CorruptDeflateBodyIs400Retryable) {
  start_server();
  codec::DeflateCodec codec;
  auto encoded = codec.encode(sample_envelope());
  ASSERT_TRUE(encoded.ok());
  std::string corrupt = encoded.value();
  corrupt[corrupt.size() / 2] ^= 0x42;
  corrupt[corrupt.size() / 2 + 1] ^= 0x24;
  http::Headers headers;
  headers.set("Content-Encoding", "deflate");
  http::Response response = raw_post(std::move(corrupt), headers);
  EXPECT_EQ(response.status, 400);
  Error error = fault_error(response);
  // The fault names kCodecError, which classifies as retryable-not-executed:
  // the server guarantees nothing ran.
  EXPECT_EQ(resilience::fault_cause(error), ErrorCode::kCodecError);
  EXPECT_EQ(resilience::classify(error),
            resilience::FaultClass::kRetryableNotExecuted);
}

TEST_F(CodecEndToEndTest, CorruptBxmlBodyIs400Retryable) {
  start_server();
  http::Headers headers;
  headers.set("Content-Encoding", "bxml");
  http::Response response = raw_post(
      std::string("BX1\0garbage-after-magic", 23), headers);
  EXPECT_EQ(response.status, 400);
  Error error = fault_error(response);
  EXPECT_EQ(resilience::fault_cause(error), ErrorCode::kCodecError);
  EXPECT_EQ(resilience::classify(error),
            resilience::FaultClass::kRetryableNotExecuted);
}

TEST_F(CodecEndToEndTest, UnknownContentEncodingIs415) {
  start_server();
  http::Headers headers;
  headers.set("Content-Encoding", "gzip");
  http::Response response = raw_post(sample_envelope(), headers);
  EXPECT_EQ(response.status, 415);
}

TEST_F(CodecEndToEndTest, DecompressionBombShedsAtBudget) {
  core::ServerOptions options;
  options.max_decoded_body_bytes = 4096;
  start_server(std::move(options));
  codec::DeflateCodec codec;
  // ~1 MB of envelope-shaped text compresses to a few KB; the decoded-size
  // limit sheds it before the plaintext materializes.
  std::string huge = sample_envelope();
  huge.insert(huge.find("</SOAP-ENV:Body>"), std::string(1u << 20, ' '));
  auto encoded = codec.encode(huge);
  ASSERT_TRUE(encoded.ok());
  ASSERT_LT(encoded.value().size(), 64u * 1024);
  http::Headers headers;
  headers.set("Content-Encoding", "deflate");
  http::Response response = raw_post(std::move(encoded).value(), headers);
  EXPECT_EQ(response.status, 400);
  const std::string metrics = server_->metrics().expose();
  EXPECT_NE(
      metrics.find("spi_limit_rejections_total{limit=\"decoded-bytes\"} 1"),
      std::string::npos)
      << metrics;
  EXPECT_EQ(server_->stats().limit_rejections, 1u);
}

TEST_F(CodecEndToEndTest, KeepAliveConnectionRenegotiatesPerRequest) {
  start_server();
  // ONE pooled connection, three messages, three different codings: the
  // stateless per-request negotiation must never leak a codec choice into
  // the next message on the same socket.
  http::ClientOptions http_options;
  http_options.keep_alive = true;
  http::HttpClient http(transport_, server_->endpoint(), http_options);
  codec::DeflateCodec deflate;

  {  // identity request, identity response
    auto response = http.post("/spi", sample_envelope());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 200);
    EXPECT_FALSE(
        response.value().headers.get("Content-Encoding").has_value());
  }
  {  // deflate request, deflate response
    auto encoded = deflate.encode(sample_envelope());
    ASSERT_TRUE(encoded.ok());
    http::Headers headers;
    headers.set("Content-Encoding", "deflate");
    headers.set("Accept-Encoding", "deflate");
    auto response = http.send([&] {
      http::Request request;
      request.method = "POST";
      request.target = "/spi";
      request.body = std::move(encoded).value();
      request.headers = headers;
      return request;
    }());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 200);
    auto coding = response.value().headers.get("Content-Encoding");
    ASSERT_TRUE(coding.has_value());
    EXPECT_EQ(*coding, "deflate");
    auto plain = deflate.decode(response.value().body, 1u << 20, {});
    EXPECT_TRUE(plain.ok());
  }
  {  // back to identity on the SAME connection
    auto response = http.post("/spi", sample_envelope());
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 200);
    EXPECT_FALSE(
        response.value().headers.get("Content-Encoding").has_value());
  }
  // All three messages rode one connection.
  EXPECT_EQ(transport_.stats().connections_opened, 1u);
}

TEST_F(CodecEndToEndTest, FaultResponsesStayIdentity) {
  start_server();
  http::Headers headers;
  headers.set("Accept-Encoding", "deflate");
  http::Response response = raw_post("<not-an-envelope/>", headers);
  EXPECT_EQ(response.status, 400);
  // The fault must be readable text XML even though the client advertised
  // deflate — a client that cannot decode its error is stuck.
  EXPECT_FALSE(response.headers.get("Content-Encoding").has_value());
  EXPECT_NE(response.body.find("SOAP-ENV:Fault"), std::string::npos);
}

TEST_F(CodecEndToEndTest, UnknownAcceptEncodingFallsBackToIdentity) {
  start_server();
  http::Headers headers;
  headers.set("Accept-Encoding", "gzip, br");
  http::Response response = raw_post(sample_envelope(), headers);
  EXPECT_EQ(response.status, 200);
  EXPECT_FALSE(response.headers.get("Content-Encoding").has_value());
  const std::string metrics = server_->metrics().expose();
  EXPECT_NE(metrics.find("spi_codec_fallbacks_total 1"), std::string::npos);
}

}  // namespace
}  // namespace spi
