// The streaming request parser: equivalence with the DOM reference path
// (property-tested over randomized batches), header skipping, error
// handling, and the end-to-end server flag.
#include <gtest/gtest.h>

#include "benchsupport/workload.hpp"
#include "common/random.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "services/echo.hpp"
#include "soap/streaming.hpp"

namespace spi::core::wire {
namespace {

using soap::Value;

Result<ParsedRequest> dom_parse(std::string_view envelope_xml) {
  auto envelope = soap::Envelope::parse(std::string(envelope_xml));
  if (!envelope.ok()) return envelope.error();
  return parse_request(envelope.value());
}

void expect_equivalent(std::string_view envelope_xml) {
  auto via_dom = dom_parse(envelope_xml);
  auto via_stream = parse_request_streaming(envelope_xml);
  ASSERT_EQ(via_dom.ok(), via_stream.ok())
      << (via_dom.ok() ? via_stream.error().to_string()
                       : via_dom.error().to_string());
  if (!via_dom.ok()) return;
  ASSERT_EQ(via_dom.value().packed, via_stream.value().packed);
  ASSERT_EQ(via_dom.value().calls.size(), via_stream.value().calls.size());
  for (size_t i = 0; i < via_dom.value().calls.size(); ++i) {
    EXPECT_EQ(via_dom.value().calls[i].id, via_stream.value().calls[i].id);
    EXPECT_EQ(via_dom.value().calls[i].call, via_stream.value().calls[i].call)
        << "call " << i;
  }
}

TEST(StreamingParseTest, SingleCallMatchesDom) {
  ServiceCall call = make_call(
      "WeatherService", "GetWeather",
      {{"city", Value("Beijing")}, {"units", Value("metric")}});
  expect_equivalent(soap::build_envelope(serialize_single_request(call)));
}

TEST(StreamingParseTest, PackedBatchMatchesDom) {
  auto calls = bench::make_echo_calls(8, 100, /*seed=*/1);
  expect_equivalent(soap::build_envelope(serialize_packed_request(calls)));
}

TEST(StreamingParseTest, TypedValuesMatchDom) {
  std::vector<ServiceCall> calls = {make_call(
      "S", "Op",
      {{"s", Value("text with <markup> & entities")},
       {"n", Value(-42)},
       {"d", Value(2.5)},
       {"b", Value(true)},
       {"nil", Value()},
       {"arr", Value(soap::Array{Value(1), Value("two")})},
       {"nested",
        Value(soap::Struct{{"inner", Value(soap::Struct{{"x", Value(9)}})}})}})};
  expect_equivalent(soap::build_envelope(serialize_packed_request(calls)));
}

TEST(StreamingParseTest, SkipsHeaderBlocks) {
  soap::WsseTokenFactory factory({"u", "p"}, 1);
  std::vector<std::string> headers;
  headers.push_back(factory.make_header_block("2006-09-25T12:00:00Z"));
  headers.push_back("<custom:Block xmlns:custom=\"urn:x\"><deep><er/></deep></custom:Block>");
  ServiceCall call = make_call("S", "Op", {{"x", Value("y")}});
  std::string envelope =
      soap::build_envelope(serialize_single_request(call), headers);

  auto parsed = parse_request_streaming(envelope);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().calls[0].call, call);
}

TEST(StreamingParseTest, PlanFallsBackWithInvalidArgument) {
  RemotePlan plan;
  plan.step("S", "Op", {PlanArg::value("x", Value(1))});
  auto parsed = parse_request_streaming(
      soap::build_envelope(serialize_plan_request(plan)));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code(), ErrorCode::kInvalidArgument);
}

TEST(StreamingParseTest, RejectsMalformedShapes) {
  EXPECT_FALSE(parse_request_streaming("").ok());
  EXPECT_FALSE(parse_request_streaming("<NotEnvelope/>").ok());
  EXPECT_FALSE(
      parse_request_streaming("<Envelope><Header/></Envelope>").ok());
  EXPECT_FALSE(
      parse_request_streaming("<Envelope><Body/></Envelope>").ok());
  EXPECT_FALSE(parse_request_streaming(soap::build_envelope(
                   "<spi:Parallel_Method/>"))
                   .ok());
  EXPECT_FALSE(parse_request_streaming(soap::build_envelope(
                   "<spi:Op><x>1</x></spi:Op>"))  // no spi:service
                   .ok());
  EXPECT_FALSE(parse_request_streaming(
                   "<Envelope><Body><spi:Parallel_Method><wrong/>"
                   "</spi:Parallel_Method></Body></Envelope>")
                   .ok());
}

TEST(StreamingParseTest, PropertyRandomBatchesMatchDom) {
  SplitMix64 rng(0x57E4);
  for (int round = 0; round < 40; ++round) {
    std::vector<ServiceCall> calls;
    size_t m = 1 + rng.next_below(12);
    for (size_t i = 0; i < m; ++i) {
      soap::Struct params;
      size_t n = rng.next_below(4);
      for (size_t p = 0; p < n; ++p) {
        switch (rng.next_below(4)) {
          case 0:
            params.emplace_back("p" + std::to_string(p),
                                Value(rng.ascii_string(rng.next_below(40))));
            break;
          case 1:
            params.emplace_back(
                "p" + std::to_string(p),
                Value(static_cast<std::int64_t>(rng.next())));
            break;
          case 2:
            params.emplace_back(
                "p" + std::to_string(p),
                Value(soap::Array{Value(1), Value("x"), Value()}));
            break;
          default:
            params.emplace_back(
                "p" + std::to_string(p),
                Value(soap::Struct{{"k", Value(rng.ascii_string(8))}}));
        }
      }
      calls.push_back(make_call("Svc" + std::to_string(rng.next_below(3)),
                                "Op" + std::to_string(rng.next_below(3)),
                                std::move(params)));
    }
    expect_equivalent(
        soap::build_envelope(serialize_packed_request(calls)));
  }
}

TEST(StreamingParseTest, EndToEndServerFlag) {
  net::SimTransport transport;
  ServiceRegistry registry;
  services::register_echo_service(registry);
  ServerOptions options;
  options.streaming_parse = true;
  SpiServer server(transport, net::Endpoint{"server", 80}, registry,
                   options);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport, server.endpoint());

  auto calls = bench::make_echo_calls(6, 200, /*seed=*/3);
  EXPECT_EQ(bench::count_echo_errors(calls, client.call_packed(calls)), 0u);
  auto single =
      client.call("EchoService", "Echo", {{"data", Value("streamed")}});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value().as_string(), "streamed");

  // Plans still work (DOM fallback).
  RemotePlan plan;
  plan.step("EchoService", "Echo", {PlanArg::value("data", Value("p"))});
  auto outcomes = client.execute_plan(plan);
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  EXPECT_EQ(outcomes.value()[0].value().as_string(), "p");
  server.stop();
}

// skip_subtree unit coverage.
TEST(SkipSubtreeTest, SkipsNestedAndSelfClosing) {
  std::string_view doc =
      "<r><skip a=\"1\"><x/><y><z/></y>text</skip><next/></r>";
  xml::PullParser parser(doc);
  (void)parser.next();  // <r>
  auto skip_start = parser.next();
  ASSERT_TRUE(skip_start.ok());
  ASSERT_EQ(skip_start.value().name, "skip");
  ASSERT_TRUE(soap::skip_subtree(parser, skip_start.value()).ok());
  auto next = parser.next();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().name, "next");
}

TEST(SkipSubtreeTest, ErrorsOnTruncation) {
  // Malformed: truncated inside the subtree.
  xml::PullParser parser("<r><skip><x>");
  (void)parser.next();
  auto skip_start = parser.next();
  ASSERT_TRUE(skip_start.ok());
  EXPECT_FALSE(soap::skip_subtree(parser, skip_start.value()).ok());
}

}  // namespace
}  // namespace spi::core::wire
