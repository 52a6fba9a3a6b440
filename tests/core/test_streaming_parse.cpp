// The streaming request parser: equivalence with the DOM reference path
// (property-tested over randomized batches, spi:Trace and spi:Deadline
// headers included), header skipping, error handling, and the end-to-end
// server flag.
#include <gtest/gtest.h>

#include "benchsupport/workload.hpp"
#include "common/random.hpp"
#include "core/call_context.hpp"
#include "core/client.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "services/echo.hpp"
#include "soap/streaming.hpp"

namespace spi::core::wire {
namespace {

using soap::Value;

/// The DOM reference path, headers included (what a server without
/// streaming_parse runs).
Result<ParsedRequest> dom_parse(std::string_view envelope_xml) {
  Dispatcher dispatcher(nullptr, {}, /*streaming=*/false);
  return dispatcher.parse_request(std::string(envelope_xml));
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
  EXPECT_EQ(via_dom.value().trace, via_stream.value().trace);
  const resilience::Deadline& dom_deadline = via_dom.value().deadline;
  const resilience::Deadline& stream_deadline = via_stream.value().deadline;
  ASSERT_EQ(dom_deadline.valid(), stream_deadline.valid());
  if (dom_deadline.valid()) {
    // Both re-anchor the carried budget at their own parse instant.
    const TimePoint now = RealClock::instance().now();
    const Duration gap =
        dom_deadline.remaining(now) - stream_deadline.remaining(now);
    EXPECT_LT(std::chrono::abs(gap), std::chrono::milliseconds(100));
  }
}

/// Header blocks of a traced, deadlined message.
std::vector<std::string> trace_and_deadline(const telemetry::TraceContext& trace,
                                            Duration budget) {
  return {trace.to_header_block(),
          resilience::Deadline::after(budget).to_header_block(
              RealClock::instance().now())};
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

TEST(StreamingParseTest, TraceAndDeadlineHeadersMatchDom) {
  ServiceCall call = make_call("S", "Op", {{"x", Value("y")}});
  telemetry::TraceContext trace = telemetry::TraceContext::generate();
  expect_equivalent(soap::build_envelope(
      serialize_single_request(call),
      trace_and_deadline(trace, std::chrono::seconds(2))));

  auto parsed = parse_request_streaming(soap::build_envelope(
      serialize_packed_request(std::vector<ServiceCall>{call, call}),
      trace_and_deadline(trace, std::chrono::seconds(2))));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().trace, trace);
  EXPECT_TRUE(parsed.value().deadline.valid());

  // The first block that carries a valid value wins, on both paths: a
  // non-hex trace id and a malformed budget are passed over.
  std::vector<std::string> headers = {
      "<spi:Trace><spi:TraceId>not-hex</spi:TraceId></spi:Trace>",
      "<spi:Deadline><spi:RemainingUs>soon</spi:RemainingUs></spi:Deadline>",
      "<x:Trace xmlns:x=\"urn:x\"><x:ParentId>ab</x:ParentId>"
      "<!-- c --><x:TraceId> 0af7 </x:TraceId></x:Trace>",
      "<spi:Deadline><spi:RemainingUs>-5</spi:RemainingUs></spi:Deadline>",
      trace.to_header_block()};
  expect_equivalent(
      soap::build_envelope(serialize_single_request(call), headers));
  auto picked = parse_request_streaming(
      soap::build_envelope(serialize_single_request(call), headers));
  ASSERT_TRUE(picked.ok()) << picked.error().to_string();
  EXPECT_EQ(picked.value().trace.trace_id, "0af7");
  EXPECT_EQ(picked.value().trace.parent_id, "ab");
  EXPECT_TRUE(picked.value().deadline.expired(RealClock::instance().now()));
}

TEST(StreamingParseTest, EnvelopeShapeMatchesDom) {
  ServiceCall call = make_call("S", "Op", {{"x", Value("y")}});
  const std::string entry = serialize_single_request(call);
  // Each of these is rejected by Envelope::parse; the streaming walk now
  // reads the whole document and rejects them too.
  for (const std::string& envelope :
       {soap::build_envelope(entry + entry),
        soap::build_envelope(entry) + "<trailing/>",
        "<Envelope><Body>" + entry + "</Body><Header/></Envelope>",
        "<Envelope><Body>" + entry + "</Body><Body/></Envelope>"}) {
    expect_equivalent(envelope);
    EXPECT_FALSE(parse_request_streaming(envelope).ok()) << envelope;
  }
  soap::EnvelopeLimits one_block;
  one_block.max_header_blocks = 1;
  EXPECT_FALSE(parse_request_streaming(
                   soap::build_envelope(entry, {"<a/>", "<b/>"}), {},
                   one_block)
                   .ok());
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
    const std::string body = serialize_packed_request(calls);
    expect_equivalent(soap::build_envelope(body));
    expect_equivalent(soap::build_envelope(
        body, trace_and_deadline(telemetry::TraceContext::generate(),
                                 std::chrono::milliseconds(
                                     1 + rng.next_below(100000)))));
  }
}

TEST(StreamingParseTest, EndToEndServerFlag) {
  net::SimTransport transport;
  ServiceRegistry registry;
  services::register_echo_service(registry);
  // Answers with the trace id its handler runs under.
  ServiceBinder(registry, "TraceService")
      .bind("Id", [](const soap::Struct&) -> Result<Value> {
        const CallContext* context = current_call_context();
        return Value(context ? context->trace.trace_id : std::string());
      });
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

  // The handler runs under the client's trace, packed and single.
  telemetry::TraceContext origin = telemetry::TraceContext::generate();
  telemetry::TraceScope scope(origin);
  auto traced = client.call_packed(std::vector<ServiceCall>{
      make_call("TraceService", "Id"), make_call("TraceService", "Id")});
  for (const CallOutcome& outcome : traced) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(outcome.value().as_string(), origin.trace_id);
  }
  auto traced_single = client.call("TraceService", "Id");
  ASSERT_TRUE(traced_single.ok());
  EXPECT_EQ(traced_single.value().as_string(), origin.trace_id);
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
