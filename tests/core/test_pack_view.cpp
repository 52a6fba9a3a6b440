// The pack and reply views (core/wire_view.hpp) against the DOM reference
// path: the same messages accepted and rejected, and for accepted ones the
// same ids, services, operations, shard keys, headers and outcomes. Checked
// on envelopes the Assembler writes, on hand-written edge cases (header
// blocks and envelope shapes included) and on a deterministic mutation
// sweep. The token-stream helpers the views use (soap/streaming.hpp) are
// unit-tested at the end.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/assembler.hpp"
#include "core/dispatcher.hpp"
#include "core/wire_view.hpp"
#include "soap/serializer.hpp"
#include "soap/streaming.hpp"
#include "soap/wsse.hpp"

namespace spi::core::wire {
namespace {

using soap::Value;

/// PackingProxy::route_key's rule on a decoded call.
std::string dom_key(const ServiceCall& call, std::string_view shard_param) {
  if (!shard_param.empty()) {
    for (const auto& [name, value] : call.params) {
      if (name == shard_param && value.is_string()) {
        return std::string(value.as_string());
      }
    }
  }
  return call.service + "/" + call.operation;
}

/// Returns whether the DOM path accepted `text`.
bool expect_request_view_matches_dom(
    std::string_view text, std::string_view shard_param = "key",
    const soap::EnvelopeLimits& envelope_limits = {}) {
  Dispatcher dom;
  dom.set_limits({}, envelope_limits);
  auto parsed = dom.parse_request(std::string(text));
  auto viewed = view_request(text, {}, envelope_limits, shard_param);
  if (viewed.ok() && viewed.value().kind == ParsedRequest::Kind::kPlan) {
    // The view leaves plans to the DOM path unread.
    if (parsed.ok()) {
      EXPECT_EQ(parsed.value().kind, ParsedRequest::Kind::kPlan);
    }
    return parsed.ok();
  }
  EXPECT_EQ(parsed.ok(), viewed.ok())
      << (parsed.ok() ? viewed.error().to_string() : parsed.error().to_string())
      << "\n" << text;
  if (!parsed.ok() || !viewed.ok()) return parsed.ok();
  const ParsedRequest& request = parsed.value();
  const PackView& view = viewed.value();
  EXPECT_EQ(request.kind, view.kind);
  EXPECT_EQ(request.packed, view.packed);
  EXPECT_EQ(request.trace, view.trace);
  EXPECT_EQ(request.deadline.valid(), view.deadline.valid());
  if (request.deadline.valid() && view.deadline.valid()) {
    // Both re-anchor the carried budget at their own parse instant.
    const TimePoint now = RealClock::instance().now();
    const Duration gap =
        request.deadline.remaining(now) - view.deadline.remaining(now);
    EXPECT_LT(std::chrono::abs(gap), std::chrono::milliseconds(100));
  }
  EXPECT_EQ(request.calls.size(), view.calls.size());
  for (size_t i = 0; i < std::min(request.calls.size(), view.calls.size());
       ++i) {
    EXPECT_EQ(request.calls[i].id, view.calls[i].id) << i;
    EXPECT_EQ(request.calls[i].call.service, view.calls[i].service) << i;
    EXPECT_EQ(request.calls[i].call.operation, view.calls[i].operation) << i;
    EXPECT_EQ(dom_key(request.calls[i].call, shard_param),
              view.calls[i].route_key)
        << i;
  }
  return true;
}

/// Returns whether the DOM path accepted `text`.
bool expect_reply_view_matches_dom(std::string_view text) {
  Dispatcher dom;
  auto parsed = dom.parse_response(std::string(text));
  auto viewed = view_response(text);
  EXPECT_EQ(parsed.ok(), viewed.ok())
      << (parsed.ok() ? viewed.error().to_string() : parsed.error().to_string())
      << "\n" << text;
  if (!parsed.ok() || !viewed.ok()) return parsed.ok();
  EXPECT_EQ(parsed.value().packed, viewed.value().packed);
  const auto& decoded = parsed.value().outcomes;
  const auto& relayed = viewed.value().outcomes;
  EXPECT_EQ(decoded.size(), relayed.size());
  for (size_t i = 0; i < std::min(decoded.size(), relayed.size()); ++i) {
    EXPECT_EQ(decoded[i].id, relayed[i].id);
    EXPECT_EQ(decoded[i].outcome.ok(), relayed[i].outcome.ok()) << i;
    if (decoded[i].outcome.ok() != relayed[i].outcome.ok()) continue;
    if (!decoded[i].outcome.ok()) {
      EXPECT_EQ(decoded[i].outcome.error(), relayed[i].outcome.error());
      continue;
    }
    // The relayed bytes are the <return> element: decoding them gives the
    // DOM path's value.
    auto value = soap::value_from_xml(relayed[i].outcome.value());
    EXPECT_TRUE(value.ok()) << value.error().to_string();
    if (value.ok()) {
      EXPECT_EQ(value.value(), decoded[i].outcome.value()) << i;
    }
  }
  return true;
}

std::vector<ServiceCall> keyed_calls(size_t count) {
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < count; ++i) {
    // Appended, not "S" + std::to_string(...): gcc 12 misreads that
    // prepend as an overlapping memcpy (-Wrestrict).
    std::string service = "S";
    service += std::to_string(i % 3);
    calls.push_back(make_call(
        service, "Op",
        {{"n", Value(static_cast<std::int64_t>(i))},
         {"key", Value("k<" + std::to_string(i) + "&\r\xc3\xa9")},
         {"arr", Value(soap::Array{Value(1.5), Value(), Value(true)})}}));
  }
  return calls;
}

TEST(PackViewTest, AssemblerEnvelopesMatchDom) {
  Assembler assembler;
  for (size_t m : {1u, 2u, 7u, 32u}) {
    auto calls = keyed_calls(m);
    EXPECT_TRUE(expect_request_view_matches_dom(
        assembler.assemble_request(calls, PackMode::kPacked).flatten()));
    EXPECT_TRUE(expect_request_view_matches_dom(
        assembler.assemble_request(calls, PackMode::kPacked).flatten(), ""));
    EXPECT_TRUE(expect_request_view_matches_dom(
        assembler.assemble_request(std::span(calls).first(1),
                                   PackMode::kSingle).flatten()));
  }
  telemetry::TraceContext trace = telemetry::TraceContext::generate();
  telemetry::TraceScope scope(trace);
  auto view = view_request(
      assembler.assemble_request(keyed_calls(3), PackMode::kPacked)
          .flatten(), {}, {},
      "key");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().trace, trace);
  EXPECT_EQ(view.value().calls[1].route_key, "k<1&\r\xc3\xa9");
  EXPECT_TRUE(view.value().calls[1].namespaces.empty())
      << "the framing declares every namespace an Assembler envelope uses";
}

TEST(PackViewTest, HandWrittenEdgeCasesMatchDom) {
  const std::string head =
      "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/"
      "envelope/\" xmlns:p=\"http://spi.example.org/2006/spi\"><soap:Body>";
  const std::string tail = "</soap:Body></soap:Envelope>";
  auto pack = [&](const std::string& calls) {
    return head + "<p:Parallel_Method>" + calls + "</p:Parallel_Method>" +
           tail;
  };
  const std::string accepted[] = {
      // Entity-escaped id and key; comments and text between calls.
      pack("<p:Call id=\"&#49;\" service=\"S\" operation=\"O\">"
           "<key>a&amp;b&lt;c</key></p:Call><!-- between -->\n"
           "<p:Call operation='O' id='0' service='S'><key>x</key></p:Call>"),
      // CDATA and text runs joined into one key; a self-closing call.
      pack("<p:Call id=\"0\" service=\"S\" operation=\"O\"><key>a<![CDATA[<b>"
           "]]><!--c-->d</key></p:Call><p:Call id=\"1\" service=\"S\" "
           "operation=\"O\"/>"),
      // Non-string shard params fall back to "service/operation"; a later
      // string-valued key still wins.
      pack("<p:Call id=\"0\" service=\"S\" operation=\"O\"><key "
           "xsi:type=\"xsd:int\"> 7 </key><key>late</key></p:Call>"
           "<p:Call id=\"1\" service=\"S\" operation=\"O\"><key "
           "xsi:nil=\"true\"><bad xsi:type=\"xsd:int\">x</bad></key></p:Call>"
           "<p:Call id=\"2\" service=\"S\" operation=\"O\"><key><a>1</a></key>"
           "</p:Call><p:Call id=\"3\" service=\"S\" operation=\"O\"><key "
           "xsi:type=\"xsd:string\">t<c/>u</key></p:Call>"),
      // Traditional form with a namespace declaration of its own (the
      // service attribute is matched by its qualified name, spi:service).
      head + "<p:Op spi:service=\"S\" xmlns:q=\"urn:q\"><key>s</key></p:Op>" +
          tail,
  };
  for (const std::string& text : accepted) {
    EXPECT_TRUE(expect_request_view_matches_dom(text)) << text;
  }
  const std::string rejected[] = {
      pack("<p:Call id=\"-1\" service=\"S\" operation=\"O\"/>"),
      pack("<p:Call id=\"4294967296\" service=\"S\" operation=\"O\"/>"),
      pack("<p:Call id=\"0\" service=\"\" operation=\"O\"/>"),
      pack("<p:Other id=\"0\" service=\"S\" operation=\"O\"/>"),
      pack(""),
      pack("<p:Call id=\"0\" service=\"S\" operation=\"O\"><n "
           "xsi:type=\"xsd:int\">4x</n></p:Call>"),
      pack("<p:Call id=\"0\" service=\"S\" operation=\"O\"><a "
           "xsi:type=\"SOAP-ENC:Array\"><item xsi:type=\"xsd:boolean\">yes"
           "</item></a></p:Call>"),
      head + "<p:Op p:service=\"S\"><key>s</key></p:Op>" + tail,
      head + "<p:Op spi:service=\"S\"/><p:Op spi:service=\"S\"/>" + tail,
      head + tail,
      pack("<p:Call id=\"0\" service=\"S\" operation=\"O\"/>") + "junk",
  };
  for (const std::string& text : rejected) {
    EXPECT_FALSE(expect_request_view_matches_dom(text)) << text;
  }
}

// The request view is the streaming parse of a request: one pass over the
// tokens, no DOM. These cases hold its envelope walk (wire::EnvelopeReader)
// to the DOM path's on header blocks, on the spi:Trace and spi:Deadline
// headers, and on the envelope shapes that both reject.

ServiceCall one_call() { return make_call("S", "Op", {{"x", Value("y")}}); }

/// Header blocks of a traced, deadlined message.
std::vector<std::string> trace_and_deadline(const telemetry::TraceContext& trace,
                                            Duration budget) {
  return {trace.to_header_block(),
          resilience::Deadline::after(budget).to_header_block(
              RealClock::instance().now())};
}

TEST(StreamingParseTest, SkipsHeaderBlocks) {
  soap::WsseTokenFactory factory({"u", "p"}, 1);
  const std::string envelope = soap::build_envelope(
      serialize_single_request(one_call()),
      {factory.make_header_block("2006-09-25T12:00:00Z"),
       "<custom:Block xmlns:custom=\"urn:x\"><deep><er/></deep>"
       "</custom:Block>"});
  EXPECT_TRUE(expect_request_view_matches_dom(envelope));
  auto viewed = view_request(envelope, {}, {}, "");
  ASSERT_TRUE(viewed.ok()) << viewed.error().to_string();
  ASSERT_EQ(viewed.value().calls.size(), 1u);
  EXPECT_EQ(viewed.value().calls[0].service, "S");
  EXPECT_EQ(viewed.value().calls[0].operation, "Op");
}

TEST(StreamingParseTest, TraceAndDeadlineHeadersMatchDom) {
  const ServiceCall call = one_call();
  const telemetry::TraceContext trace = telemetry::TraceContext::generate();
  EXPECT_TRUE(expect_request_view_matches_dom(
      soap::build_envelope(serialize_single_request(call),
                           trace_and_deadline(trace, std::chrono::seconds(2)))));

  const std::string packed = soap::build_envelope(
      serialize_packed_request(std::vector<ServiceCall>{call, call}),
      trace_and_deadline(trace, std::chrono::seconds(2)));
  EXPECT_TRUE(expect_request_view_matches_dom(packed));
  auto viewed = view_request(packed, {}, {}, "");
  ASSERT_TRUE(viewed.ok()) << viewed.error().to_string();
  EXPECT_EQ(viewed.value().trace, trace);
  EXPECT_TRUE(viewed.value().deadline.valid());

  // The first block that carries a valid value wins, on both paths: a
  // non-hex trace id and a malformed budget are passed over.
  const std::string picked_from = soap::build_envelope(
      serialize_single_request(call),
      {"<spi:Trace><spi:TraceId>not-hex</spi:TraceId></spi:Trace>",
       "<spi:Deadline><spi:RemainingUs>soon</spi:RemainingUs></spi:Deadline>",
       "<x:Trace xmlns:x=\"urn:x\"><x:ParentId>ab</x:ParentId>"
       "<!-- c --><x:TraceId> 0af7 </x:TraceId></x:Trace>",
       "<spi:Deadline><spi:RemainingUs>-5</spi:RemainingUs></spi:Deadline>",
       trace.to_header_block()});
  EXPECT_TRUE(expect_request_view_matches_dom(picked_from));
  auto picked = view_request(picked_from, {}, {}, "");
  ASSERT_TRUE(picked.ok()) << picked.error().to_string();
  EXPECT_EQ(picked.value().trace.trace_id, "0af7");
  EXPECT_EQ(picked.value().trace.parent_id, "ab");
  EXPECT_TRUE(picked.value().deadline.expired(RealClock::instance().now()));
}

TEST(StreamingParseTest, EnvelopeShapeMatchesDom) {
  const std::string entry = serialize_single_request(one_call());
  // A second entry, content after the root, a Header after the Body and a
  // second Body: Envelope::parse rejects each, and so does the view.
  const std::string shapes[] = {
      soap::build_envelope(entry + entry),
      soap::build_envelope(entry) + "<trailing/>",
      "<Envelope><Body>" + entry + "</Body><Header/></Envelope>",
      "<Envelope><Body>" + entry + "</Body><Body/></Envelope>",
  };
  for (const std::string& envelope : shapes) {
    EXPECT_FALSE(expect_request_view_matches_dom(envelope)) << envelope;
  }
  soap::EnvelopeLimits one_block;
  one_block.max_header_blocks = 1;
  EXPECT_FALSE(expect_request_view_matches_dom(
      soap::build_envelope(entry, {"<a/>", "<b/>"}), "key", one_block));
}

TEST(StreamingParseTest, RejectsMalformedShapes) {
  const std::string malformed[] = {
      "",
      "<NotEnvelope/>",
      "<Envelope><Header/></Envelope>",
      "<Envelope><Body/></Envelope>",
      soap::build_envelope("<spi:Parallel_Method/>"),
      soap::build_envelope("<spi:Op><x>1</x></spi:Op>"),  // no spi:service
      "<Envelope><Body><spi:Parallel_Method><wrong/>"
      "</spi:Parallel_Method></Body></Envelope>",
  };
  for (const std::string& text : malformed) {
    EXPECT_FALSE(expect_request_view_matches_dom(text)) << text;
  }
}

TEST(PackViewTest, RepliesMatchDom) {
  Assembler assembler;
  std::vector<IndexedOutcome> outcomes = {
      {0, CallOutcome(Value("r<&\r\xc3\xa9"))},
      {2, CallOutcome(Error(ErrorCode::kCapacityExceeded, "shed <now>"))},
      {1, CallOutcome(Value(soap::Struct{{"x", Value(2.25)}}))},
      {3, CallOutcome(Value())},
  };
  static const ServiceCall kOp = make_call("S", "Op");
  EXPECT_TRUE(expect_reply_view_matches_dom(
      assembler.assemble_response(outcomes, kOp, true).flatten()));
  EXPECT_TRUE(expect_reply_view_matches_dom(
      assembler.assemble_response(std::span(outcomes).first(1), kOp, false)
          .flatten()));
  EXPECT_TRUE(expect_reply_view_matches_dom(assembler.assemble_response(
      std::span(outcomes).subspan(1, 1), kOp, false).flatten()));

  const std::string head = "<E:Envelope xmlns:E=\"urn:e\"><E:Body>";
  const std::string tail = "</E:Body></E:Envelope>";
  // A Fault child wins over a <return> even when the return is bad.
  EXPECT_TRUE(expect_reply_view_matches_dom(
      head +
      "<Parallel_Response><CallResponse id=\"0\"><return "
      "xsi:type=\"xsd:int\">x</return><E:Fault><faultcode> c </faultcode>"
      "<faultstring>s</faultstring><detail>d</detail></E:Fault>"
      "</CallResponse></Parallel_Response>" +
      tail));
  EXPECT_FALSE(expect_reply_view_matches_dom(
      head + "<Parallel_Response><CallResponse id=\"0\"><return "
             "xsi:type=\"xsd:int\">x</return></CallResponse>"
             "</Parallel_Response>" +
      tail));
  // A traditional entry that holds neither a return nor a fault.
  EXPECT_FALSE(expect_reply_view_matches_dom(
      head + "<R><CallResponse id=\"0\"/></R>" + tail));
  EXPECT_FALSE(expect_reply_view_matches_dom(
      head + "<Parallel_Response><CallResponse id=\"0\"/></Parallel_Response>" +
      tail));
  EXPECT_FALSE(expect_reply_view_matches_dom(
      head + "<Parallel_Response><Other id=\"0\"><return>v</return></Other>"
             "</Parallel_Response>" +
      tail));
}

/// Deterministic mutations of valid messages: every one must be accepted
/// or rejected by the view exactly as by the DOM path.
TEST(PackViewTest, MutationSweepMatchesDom) {
  Assembler assembler;
  std::vector<std::string> seeds;
  {
    telemetry::TraceContext trace = telemetry::TraceContext::generate();
    telemetry::TraceScope scope(trace);
    resilience::Deadline deadline =
        resilience::Deadline::after(std::chrono::seconds(5));
    resilience::DeadlineScope deadline_scope(deadline);
    seeds.push_back(
        assembler.assemble_request(keyed_calls(3), PackMode::kPacked)
            .flatten());
  }
  seeds.push_back(
      assembler.assemble_request(keyed_calls(1), PackMode::kSingle).flatten());
  std::vector<std::string> replies;
  static const ServiceCall kOp = make_call("S", "Op");
  std::vector<IndexedOutcome> outcomes = {
      {0, CallOutcome(Value("v&"))},
      {1, CallOutcome(Error(ErrorCode::kNotFound, "no such op"))}};
  replies.push_back(assembler.assemble_response(outcomes, kOp, true).flatten());
  replies.push_back(
      assembler.assemble_response(std::span(outcomes).first(1), kOp, false)
          .flatten());

  static constexpr char kBytes[] = "<>/&;\"'=: ax1-#!?[]";
  SplitMix64 rng(0xB17E);
  auto mutate = [&](std::string text) {
    const size_t at = rng.next_below(text.size());
    switch (rng.next_below(4)) {
      case 0: text.erase(at, 1 + rng.next_below(3)); break;
      case 1: text.insert(at, 1, kBytes[rng.next_below(sizeof(kBytes) - 1)]); break;
      case 2: text[at] = kBytes[rng.next_below(sizeof(kBytes) - 1)]; break;
      default: text.resize(at); break;
    }
    return text;
  };
  size_t accepted = 0;
  for (int round = 0; round < 1500; ++round) {
    const std::string& seed = seeds[round % seeds.size()];
    if (expect_request_view_matches_dom(mutate(seed))) ++accepted;
    if (expect_reply_view_matches_dom(mutate(replies[round % replies.size()]))) {
      ++accepted;
    }
    if (HasFailure()) break;
  }
  // The sweep must exercise both outcomes, not just rejections.
  EXPECT_GT(accepted, 100u);
}

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
