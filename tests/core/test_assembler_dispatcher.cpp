// Assembler + Dispatcher in isolation (no HTTP/transport): pack/unpack
// round trips, fan-out execution semantics, response routing validation,
// and the pack-cost hook.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "core/assembler.hpp"
#include "core/dispatcher.hpp"
#include "core/params.hpp"
#include "resilience/deadline.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {
namespace {

using soap::Value;

std::vector<ServiceCall> echo_calls(size_t n) {
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < n; ++i) {
    calls.push_back(make_call("EchoService", "Echo",
                              {{"data", Value("payload-" + std::to_string(i))}}));
  }
  return calls;
}

void register_echo(ServiceRegistry& registry) {
  (void)registry.register_operation(
      "EchoService", "Echo",
      [](const soap::Struct& params) -> Result<Value> {
        const Value* data = find_param(params, "data");
        if (!data) return Error(ErrorCode::kInvalidArgument, "no data");
        return *data;
      });
}

TEST(AssemblerTest, AutoModePicksFramingBySize) {
  Assembler assembler;
  auto one = echo_calls(1);
  EXPECT_EQ(assembler.assemble_request(one, PackMode::kAuto)
                .find("Parallel_Method"),
            std::string::npos);
  auto three = echo_calls(3);
  EXPECT_NE(assembler.assemble_request(three, PackMode::kAuto)
                .find("Parallel_Method"),
            std::string::npos);
}

TEST(AssemblerTest, PackedModeForcesParallelMethodAtM1) {
  Assembler assembler;
  auto one = echo_calls(1);
  EXPECT_NE(assembler.assemble_request(one, PackMode::kPacked)
                .find("Parallel_Method"),
            std::string::npos);
}

TEST(AssemblerTest, InvalidBatchesThrow) {
  Assembler assembler;
  std::vector<ServiceCall> empty;
  EXPECT_THROW(assembler.assemble_request(empty, PackMode::kAuto), SpiError);
  auto two = echo_calls(2);
  EXPECT_THROW(assembler.assemble_request(two, PackMode::kSingle), SpiError);
  std::vector<IndexedOutcome> none;
  EXPECT_THROW(assembler.assemble_response(none, ServiceCall{}, true),
               SpiError);
}

TEST(AssemblerTest, StatsTrackEnvelopesAndCalls) {
  Assembler assembler;
  auto calls = echo_calls(4);
  (void)assembler.assemble_request(calls, PackMode::kPacked);
  auto one = echo_calls(1);
  (void)assembler.assemble_request(one, PackMode::kSingle);
  auto stats = assembler.stats();
  EXPECT_EQ(stats.envelopes, 2u);
  EXPECT_EQ(stats.packed_envelopes, 1u);
  EXPECT_EQ(stats.calls, 5u);
}

TEST(AssemblerTest, WsseFactoryAddsSecurityHeader) {
  soap::WsseTokenFactory factory({"u", "p"}, 1);
  Assembler assembler(&factory);
  auto calls = echo_calls(2);
  std::string envelope = assembler.assemble_request(calls, PackMode::kPacked);
  EXPECT_NE(envelope.find("wsse:Security"), std::string::npos);
  EXPECT_NE(envelope.find("SOAP-ENV:Header"), std::string::npos);
}

TEST(PackCostTest, ChargeAdvancesInjectedClock) {
  ManualClock clock;
  PackCostModel model;
  model.ns_per_byte = 10.0;
  model.us_per_call = 2.0;
  model.clock = &clock;
  ASSERT_TRUE(model.enabled());
  model.charge(1000, 5);  // 10us + 10us
  EXPECT_EQ(clock.now().time_since_epoch(),
            Duration(std::chrono::microseconds(20)));
}

TEST(PackCostTest, DisabledModelChargesNothing) {
  ManualClock clock;
  PackCostModel model;
  model.clock = &clock;
  EXPECT_FALSE(model.enabled());
  model.charge(1'000'000'000, 1'000'000);
  EXPECT_EQ(clock.now().time_since_epoch(), Duration::zero());
}

TEST(AssemblerTest, PackCostChargedOnlyForPackedEnvelopes) {
  ManualClock clock;
  PackCostModel model;
  model.us_per_call = 100.0;
  model.clock = &clock;
  Assembler assembler(nullptr, model);

  auto one = echo_calls(1);
  (void)assembler.assemble_request(one, PackMode::kSingle);
  EXPECT_EQ(clock.now().time_since_epoch(), Duration::zero());

  auto four = echo_calls(4);
  (void)assembler.assemble_request(four, PackMode::kPacked);
  EXPECT_GE(clock.now().time_since_epoch(),
            Duration(std::chrono::microseconds(400)));
}

// --- envelope framing ------------------------------------------------------------

// The Assembler writes framing, header blocks and body into one buffer;
// the result must stay byte-identical to build_envelope() over the
// separately serialized body. EncodedResponseCache keys on these bytes
// and PackCostModel charges their size.

/// The envelope's spi:Deadline block, rebuilt from the budget it carries:
/// only the microsecond value depends on when the Assembler read the
/// clock; every other byte must be Deadline::to_header_block()'s.
std::string deadline_block_of(std::string_view envelope) {
  const TimePoint now = RealClock::instance().now();
  auto deadline = resilience::Deadline::scan(envelope, now);
  if (!deadline) {
    ADD_FAILURE() << "no spi:Deadline block in envelope";
    return {};
  }
  EXPECT_GT(deadline->remaining(now), Duration::zero());
  EXPECT_LE(deadline->remaining(now), Duration(std::chrono::seconds(10)));
  return deadline->to_header_block(now);
}

/// Runs `assemble` under a WS-Security factory, a trace scope and a
/// deadline scope, and expects build_envelope(body, {security, trace,
/// deadline}) byte for byte. A twin factory with the same seed rebuilds
/// the Security block; an attempt that straddles a wall-clock second
/// (the block's Created stamp) is retried with both factories in step.
void expect_framing_with_headers(
    const std::function<std::string(Assembler&)>& assemble,
    const std::string& body) {
  const soap::WsseCredentials credentials{"operator", "s3cret&<key>"};
  soap::WsseTokenFactory factory(credentials, 42);
  soap::WsseTokenFactory twin(credentials, 42);
  Assembler assembler(&factory);
  const telemetry::TraceContext trace = telemetry::TraceContext::generate();
  telemetry::TraceScope trace_scope(trace);
  const resilience::Deadline deadline =
      resilience::Deadline::after(std::chrono::seconds(10));
  resilience::DeadlineScope deadline_scope(deadline);
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::string created = soap::iso8601_now();
    const std::string envelope = assemble(assembler);
    const std::string security = twin.make_header_block(created);
    if (soap::iso8601_now() != created) continue;
    const std::vector<std::string> headers = {
        security, trace.to_header_block(), deadline_block_of(envelope)};
    EXPECT_EQ(envelope, soap::build_envelope(body, headers));
    return;
  }
  FAIL() << "wall-clock second changed on every attempt";
}

std::vector<ServiceCall> framing_calls(size_t n) {
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < n; ++i) {
    // Markup, CR and non-ASCII bytes exercise the escape scan in place.
    calls.push_back(make_call(
        "EchoService", "Echo",
        {{"data", Value("a<b & c>\r\n\xC3\xA9 #" + std::to_string(i))},
         {"count", Value(static_cast<std::int64_t>(i))}}));
  }
  return calls;
}

std::vector<IndexedOutcome> framing_outcomes() {
  std::vector<IndexedOutcome> outcomes;
  outcomes.push_back({0, CallOutcome(Value("r<0>&\r"))});
  outcomes.push_back(
      {1, CallOutcome(Error(ErrorCode::kNotFound, "no <such> op"))});
  outcomes.push_back({2, CallOutcome(Value(std::int64_t{7}))});
  return outcomes;
}

TEST(AssemblerFramingTest, PackedRequestMatchesBuildEnvelope) {
  const auto calls = framing_calls(3);
  expect_framing_with_headers(
      [&](Assembler& a) { return a.assemble_request(calls, PackMode::kPacked); },
      wire::serialize_packed_request(calls));
}

TEST(AssemblerFramingTest, SingleRequestMatchesBuildEnvelope) {
  const auto calls = framing_calls(1);
  expect_framing_with_headers(
      [&](Assembler& a) { return a.assemble_request(calls, PackMode::kSingle); },
      wire::serialize_single_request(calls.front()));
}

TEST(AssemblerFramingTest, PackedResponseMatchesBuildEnvelope) {
  const auto outcomes = framing_outcomes();
  expect_framing_with_headers(
      [&](Assembler& a) {
        return a.assemble_response(outcomes, ServiceCall{}, true);
      },
      wire::serialize_packed_response(outcomes));
}

TEST(AssemblerFramingTest, SingleResponsesMatchBuildEnvelope) {
  const ServiceCall call = framing_calls(1).front();
  for (const IndexedOutcome& outcome : framing_outcomes()) {
    const std::vector<IndexedOutcome> one = {{0, outcome.outcome}};
    expect_framing_with_headers(
        [&](Assembler& a) { return a.assemble_response(one, call, false); },
        wire::serialize_single_response(call, outcome.outcome));
  }
}

TEST(AssemblerFramingTest, PlanMatchesBuildEnvelope) {
  RemotePlan plan;
  PlanStep step;
  step.service = "EchoService";
  step.operation = "Echo";
  step.args.push_back(PlanArg::value("data", Value("x<y")));
  plan.steps.push_back(step);
  expect_framing_with_headers(
      [&](Assembler& a) { return a.assemble_plan(plan); },
      wire::serialize_plan_request(plan));
}

TEST(AssemblerFramingTest, HeaderlessEnvelopesMatchBuildEnvelope) {
  Assembler assembler;
  const auto calls = framing_calls(4);
  EXPECT_EQ(assembler.assemble_request(calls, PackMode::kPacked),
            soap::build_envelope(wire::serialize_packed_request(calls)));
  const auto outcomes = framing_outcomes();
  EXPECT_EQ(assembler.assemble_response(outcomes, ServiceCall{}, true),
            soap::build_envelope(wire::serialize_packed_response(outcomes)));
}

TEST(AssemblerFramingTest, EmptyBodyKeepsExpandedBodyElement) {
  EXPECT_NE(soap::build_envelope("").find(
                "<SOAP-ENV:Body></SOAP-ENV:Body></SOAP-ENV:Envelope>"),
            std::string::npos);
}

// --- dispatcher -----------------------------------------------------------------

TEST(DispatcherTest, ParseRequestRoundTripsAssemblerOutput) {
  Assembler assembler;
  Dispatcher dispatcher;
  auto calls = echo_calls(3);
  auto parsed = dispatcher.parse_request(
      assembler.assemble_request(calls, PackMode::kPacked));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().packed);
  EXPECT_EQ(parsed.value().calls.size(), 3u);
  EXPECT_EQ(dispatcher.stats().packed_envelopes, 1u);
}

TEST(DispatcherTest, ParseRequestRejectsGarbage) {
  Dispatcher dispatcher;
  EXPECT_FALSE(dispatcher.parse_request("not xml at all").ok());
  EXPECT_FALSE(dispatcher.parse_request("<NotEnvelope/>").ok());
  EXPECT_EQ(dispatcher.stats().envelopes, 0u);
}

TEST(DispatcherTest, ExecuteInlineWithoutPool) {
  Dispatcher dispatcher;
  ServiceRegistry registry;
  register_echo(registry);
  Assembler assembler;
  auto calls = echo_calls(4);
  auto parsed = dispatcher.parse_request(
      assembler.assemble_request(calls, PackMode::kPacked));
  ASSERT_TRUE(parsed.ok());

  auto outcomes = dispatcher.execute(parsed.value(), registry, nullptr);
  ASSERT_EQ(outcomes.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(outcomes[i].id, i);
    ASSERT_TRUE(outcomes[i].outcome.ok());
    EXPECT_EQ(outcomes[i].outcome.value().as_string(),
              "payload-" + std::to_string(i));
  }
  EXPECT_EQ(dispatcher.stats().calls_dispatched, 4u);
}

TEST(DispatcherTest, ExecuteFansOutToPool) {
  Dispatcher dispatcher;
  ServiceRegistry registry;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  (void)registry.register_operation(
      "S", "Track", [&](const soap::Struct&) -> Result<Value> {
        int now = ++concurrent;
        int seen = max_concurrent.load();
        while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        --concurrent;
        return Value(true);
      });

  wire::ParsedRequest request;
  request.packed = true;
  for (std::uint32_t i = 0; i < 8; ++i) {
    request.calls.push_back({i, make_call("S", "Track")});
  }
  ThreadPool pool(8, "app");
  auto outcomes = dispatcher.execute(request, registry, &pool);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_GE(max_concurrent.load(), 4);  // genuinely parallel
}

TEST(DispatcherTest, ExecuteCountsFaults) {
  Dispatcher dispatcher;
  ServiceRegistry registry;
  register_echo(registry);
  wire::ParsedRequest request;
  request.packed = true;
  request.calls.push_back({0, make_call("EchoService", "Echo",
                                        {{"data", Value(1)}})});
  request.calls.push_back({1, make_call("Ghost", "Boo")});
  auto outcomes = dispatcher.execute(request, registry, nullptr);
  EXPECT_TRUE(outcomes[0].outcome.ok());
  EXPECT_FALSE(outcomes[1].outcome.ok());
  EXPECT_EQ(dispatcher.stats().faults_produced, 1u);
}

TEST(DispatcherTest, RouteOrdersById) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.packed = true;
  response.outcomes.push_back({2, CallOutcome(Value("c"))});
  response.outcomes.push_back({0, CallOutcome(Value("a"))});
  response.outcomes.push_back({1, CallOutcome(Value("b"))});
  auto routed = dispatcher.route(std::move(response), 3);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value()[0].value(), Value("a"));
  EXPECT_EQ(routed.value()[1].value(), Value("b"));
  EXPECT_EQ(routed.value()[2].value(), Value("c"));
}

TEST(DispatcherTest, RouteRejectsCountMismatch) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.outcomes.push_back({0, CallOutcome(Value(1))});
  EXPECT_FALSE(dispatcher.route(std::move(response), 2).ok());
}

TEST(DispatcherTest, RouteRejectsOutOfRangeId) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.outcomes.push_back({5, CallOutcome(Value(1))});
  auto routed = dispatcher.route(std::move(response), 1);
  ASSERT_FALSE(routed.ok());
  EXPECT_NE(routed.error().message().find("out of range"), std::string::npos);
}

TEST(DispatcherTest, RouteRejectsDuplicateId) {
  Dispatcher dispatcher;
  wire::ParsedResponse response;
  response.outcomes.push_back({0, CallOutcome(Value(1))});
  response.outcomes.push_back({0, CallOutcome(Value(2))});
  auto routed = dispatcher.route(std::move(response), 2);
  ASSERT_FALSE(routed.ok());
  EXPECT_NE(routed.error().message().find("duplicate"), std::string::npos);
}

TEST(DispatcherTest, WsseVerifierEnforced) {
  soap::WsseVerifier verifier({"u", "p"});
  Dispatcher dispatcher(&verifier);
  Assembler bare_assembler;
  auto calls = echo_calls(1);
  auto rejected = dispatcher.parse_request(
      bare_assembler.assemble_request(calls, PackMode::kPacked));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message().find("Security"), std::string::npos);

  soap::WsseTokenFactory factory({"u", "p"}, 3);
  Assembler secured_assembler(&factory);
  auto accepted = dispatcher.parse_request(
      secured_assembler.assemble_request(calls, PackMode::kPacked));
  EXPECT_TRUE(accepted.ok()) << accepted.error().to_string();
}

}  // namespace
}  // namespace spi::core
