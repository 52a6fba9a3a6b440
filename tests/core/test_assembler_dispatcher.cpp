// Assembler + Dispatcher in isolation (no HTTP/transport): pack/unpack
// round trips, fan-out execution semantics (claimer count, concurrency,
// deadline and capacity sheds, counters), response routing validation,
// and the pack-cost hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>

#include "codec/deflate.hpp"
#include "concurrency/wait_group.hpp"
#include "core/assembler.hpp"
#include "core/call_context.hpp"
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
  EXPECT_EQ(assembler.assemble_request(one, PackMode::kAuto).flatten()
                .find("Parallel_Method"),
            std::string::npos);
  auto three = echo_calls(3);
  EXPECT_NE(assembler.assemble_request(three, PackMode::kAuto).flatten()
                .find("Parallel_Method"),
            std::string::npos);
}

TEST(AssemblerTest, PackedModeForcesParallelMethodAtM1) {
  Assembler assembler;
  auto one = echo_calls(1);
  EXPECT_NE(assembler.assemble_request(one, PackMode::kPacked).flatten()
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
  std::string envelope =
      assembler.assemble_request(calls, PackMode::kPacked).flatten();
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
// separately serialized body. PackCostModel charges their size.

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
      [&](Assembler& a) {
        return a.assemble_request(calls, PackMode::kPacked).flatten();
      },
      wire::serialize_packed_request(calls));
}

TEST(AssemblerFramingTest, SingleRequestMatchesBuildEnvelope) {
  const auto calls = framing_calls(1);
  expect_framing_with_headers(
      [&](Assembler& a) {
        return a.assemble_request(calls, PackMode::kSingle).flatten();
      },
      wire::serialize_single_request(calls.front()));
}

TEST(AssemblerFramingTest, PackedResponseMatchesBuildEnvelope) {
  const auto outcomes = framing_outcomes();
  expect_framing_with_headers(
      [&](Assembler& a) {
        return a.assemble_response(outcomes, ServiceCall{}, true).flatten();
      },
      wire::serialize_packed_response(outcomes));
}

TEST(AssemblerFramingTest, SingleResponsesMatchBuildEnvelope) {
  const ServiceCall call = framing_calls(1).front();
  for (const IndexedOutcome& outcome : framing_outcomes()) {
    const std::vector<IndexedOutcome> one = {{0, outcome.outcome}};
    expect_framing_with_headers(
        [&](Assembler& a) {
          return a.assemble_response(one, call, false).flatten();
        },
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
  EXPECT_EQ(assembler.assemble_request(calls, PackMode::kPacked).flatten(),
            soap::build_envelope(wire::serialize_packed_request(calls)));
  const auto outcomes = framing_outcomes();
  EXPECT_EQ(assembler.assemble_response(outcomes, ServiceCall{}, true)
      .flatten(),
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
      assembler.assemble_request(calls, PackMode::kPacked).flatten());
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

// A deflate-coded body inflates into a fresh string, which each parse then
// adopts: the request and the response still round-trip.
TEST(DispatcherTest, DeflateCodedBodiesRoundTripThroughAdoptingParse) {
  const codec::DeflateCodec deflate;
  Assembler assembler;
  Dispatcher server_side;
  Dispatcher client_side;
  ServiceRegistry registry;
  register_echo(registry);
  auto calls = echo_calls(5);

  auto request_wire =
      deflate.encode(assembler.assemble_request(calls, PackMode::kPacked)
          .flatten());
  ASSERT_TRUE(request_wire.ok());
  auto request_text = deflate.decode(request_wire.value(), 1u << 20);
  ASSERT_TRUE(request_text.ok()) << request_text.error().to_string();
  auto request = server_side.parse_request(std::move(request_text).value());
  ASSERT_TRUE(request.ok()) << request.error().to_string();
  ASSERT_EQ(request.value().calls.size(), calls.size());

  auto outcomes = server_side.execute(request.value(), registry, nullptr);
  auto response_wire = deflate.encode(assembler.assemble_response(
      outcomes, request.value().calls.front().call, request.value().packed)
          .flatten());
  ASSERT_TRUE(response_wire.ok());
  auto response_text = deflate.decode(response_wire.value(), 1u << 20);
  ASSERT_TRUE(response_text.ok()) << response_text.error().to_string();
  auto response = client_side.parse_response(std::move(response_text).value());
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  auto routed = client_side.route(std::move(response).value(), calls.size());
  ASSERT_TRUE(routed.ok()) << routed.error().to_string();
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(routed.value()[i].ok()) << routed.value()[i].error().to_string();
    EXPECT_EQ(routed.value()[i].value(),
              Value("payload-" + std::to_string(i)));
  }
}

TEST(DispatcherTest, ExecuteInlineWithoutPool) {
  Dispatcher dispatcher;
  ServiceRegistry registry;
  register_echo(registry);
  Assembler assembler;
  auto calls = echo_calls(4);
  auto parsed = dispatcher.parse_request(
      assembler.assemble_request(calls, PackMode::kPacked).flatten());
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
      bare_assembler.assemble_request(calls, PackMode::kPacked).flatten());
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message().find("Security"), std::string::npos);

  soap::WsseTokenFactory factory({"u", "p"}, 3);
  Assembler secured_assembler(&factory);
  auto accepted = dispatcher.parse_request(
      secured_assembler.assemble_request(calls, PackMode::kPacked).flatten());
  EXPECT_TRUE(accepted.ok()) << accepted.error().to_string();
}

// --- claimer fan-out ----------------------------------------------------------

/// A packed request of `n` calls to S.Tag. Ids start at 100, so no id
/// equals its index, and each call carries its own id as parameter "id".
wire::ParsedRequest tag_request(size_t n) {
  wire::ParsedRequest request;
  request.packed = true;
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(100 + i);
    request.calls.push_back(
        {id, make_call("S", "Tag", {{"id", Value(std::int64_t{id})}})});
  }
  return request;
}

/// Returns the call's "id" parameter if current_call_context() carries
/// that same call id; faults otherwise.
Result<Value> tag(const soap::Struct& params) {
  const CallContext* context = current_call_context();
  const Value* id = find_param(params, "id");
  if (context == nullptr || id == nullptr ||
      std::int64_t{context->call_id} != id->as_int()) {
    return Error(ErrorCode::kInternal, "call context is not this call's");
  }
  return *id;
}

void register_tag(ServiceRegistry& registry) {
  (void)registry.register_operation("S", "Tag", tag);
}

/// Outcome i must carry request call i's id and, when ok, its tag.
void expect_in_request_order(const wire::ParsedRequest& request,
                             const std::vector<IndexedOutcome>& outcomes) {
  ASSERT_EQ(outcomes.size(), request.calls.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].id, request.calls[i].id);
    if (outcomes[i].outcome.ok()) {
      EXPECT_EQ(outcomes[i].outcome.value().as_int(),
                std::int64_t{request.calls[i].id});
    }
  }
}

/// Holds every worker of a pool inside a task until release() or
/// destruction. Declare it after the pool, so the workers are freed before
/// the pool joins them.
class WorkerHold {
 public:
  explicit WorkerHold(ThreadPool& pool) {
    CountdownLatch holding(pool.thread_count());
    for (size_t i = 0; i < pool.thread_count(); ++i) {
      EXPECT_TRUE(pool.submit([&holding, gate = gate_] {
        holding.count_down();
        gate->wait();
      }));
    }
    holding.wait();
  }
  ~WorkerHold() { release(); }

  WorkerHold(const WorkerHold&) = delete;
  WorkerHold& operator=(const WorkerHold&) = delete;

  void release() { gate_->count_down(); }

 private:
  std::shared_ptr<CountdownLatch> gate_ = std::make_shared<CountdownLatch>(1);
};

struct FanOutShape {
  size_t calls;    // M
  size_t workers;  // W
};

void PrintTo(const FanOutShape& shape, std::ostream* out) {
  *out << "M=" << shape.calls << " W=" << shape.workers;
}

class DispatcherFanOutTest : public ::testing::TestWithParam<FanOutShape> {};

TEST_P(DispatcherFanOutTest, ExecuteFansOutToPool) {
  const auto [m, w] = GetParam();
  const size_t k = std::min(m, w);
  // The first k handlers wait until k are inside at once. A handler cannot
  // leave before that, so the k come from k claimers running together.
  CountdownLatch all_inside(k);
  std::atomic<size_t> inside{0};
  std::atomic<size_t> peak{0};
  std::atomic<bool> rendezvous_timed_out{false};
  ServiceRegistry registry;
  (void)registry.register_operation(
      "S", "Tag", [&](const soap::Struct& params) -> Result<Value> {
        const size_t now = ++inside;
        size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        all_inside.count_down();
        if (!all_inside.wait_for(std::chrono::seconds(10))) {
          rendezvous_timed_out = true;
        }
        --inside;
        return tag(params);
      });

  Dispatcher dispatcher;
  ThreadPool pool(w, "app");
  const wire::ParsedRequest request = tag_request(m);
  const auto outcomes = dispatcher.execute(request, registry, &pool);
  pool.shutdown();  // joins the workers: completed_tasks() is final

  EXPECT_FALSE(rendezvous_timed_out.load());
  EXPECT_EQ(pool.completed_tasks(), k);
  EXPECT_EQ(peak.load(), k);
  expect_in_request_order(request, outcomes);
  for (const IndexedOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.outcome.ok()) << outcome.outcome.error().to_string();
  }
  EXPECT_EQ(dispatcher.stats().calls_dispatched, m);
}

INSTANTIATE_TEST_SUITE_P(Claimers, DispatcherFanOutTest,
                         ::testing::Values(FanOutShape{8, 8},
                                           FanOutShape{32, 4},
                                           FanOutShape{3, 8}),
                         [](const auto& info) {
                           return "M" + std::to_string(info.param.calls) +
                                  "W" + std::to_string(info.param.workers);
                         });

TEST(DispatcherClaimerTest, DeadlineExpiringMidMessageShedsLaterPickups) {
  // One worker, so calls are picked up in request order. The second
  // call's handler returns only after the message's deadline has passed.
  wire::ParsedRequest request = tag_request(6);
  request.deadline =
      resilience::Deadline::after(std::chrono::milliseconds(300));
  ServiceRegistry registry;
  (void)registry.register_operation(
      "S", "Tag", [&](const soap::Struct& params) -> Result<Value> {
        if (current_call_context()->call_id == request.calls[1].id) {
          while (!request.deadline.expired(RealClock::instance().now())) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        return tag(params);
      });
  Dispatcher dispatcher;
  ThreadPool pool(1, "app");
  const auto outcomes = dispatcher.execute(request, registry, &pool);

  expect_in_request_order(request, outcomes);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(outcomes[i].outcome.ok()) << "call " << i;
  }
  for (size_t i = 2; i < outcomes.size(); ++i) {
    ASSERT_FALSE(outcomes[i].outcome.ok()) << "call " << i;
    EXPECT_EQ(outcomes[i].outcome.error().code(),
              ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(outcomes[i].outcome.error().message(),
              "deadline expired before execute stage");
  }
  EXPECT_EQ(dispatcher.stats().deadline_shed, 4u);
}

TEST(DispatcherClaimerTest, OverCapCallsFaultAndPostNoTask) {
  Dispatcher dispatcher;
  soap::EnvelopeLimits limits;
  limits.max_fanout = 3;
  dispatcher.set_limits(xml::ParseLimits{}, limits);
  ServiceRegistry registry;
  register_tag(registry);
  ThreadPool pool(8, "app");
  const wire::ParsedRequest request = tag_request(8);
  const auto outcomes = dispatcher.execute(request, registry, &pool);
  pool.shutdown();

  EXPECT_EQ(pool.completed_tasks(), 3u);  // min(M' = 3, W = 8)
  expect_in_request_order(request, outcomes);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(outcomes[i].outcome.ok()) << "call " << i;
  }
  for (size_t i = 3; i < outcomes.size(); ++i) {
    ASSERT_FALSE(outcomes[i].outcome.ok()) << "call " << i;
    EXPECT_EQ(outcomes[i].outcome.error().code(),
              ErrorCode::kCapacityExceeded);
    EXPECT_EQ(outcomes[i].outcome.error().message(),
              "envelope limit exceeded: fan-out (8 > 3 calls)");
  }
  EXPECT_EQ(dispatcher.stats().limit_rejected_calls, 5u);
  EXPECT_EQ(dispatcher.stats().calls_dispatched, 3u);
}

TEST(DispatcherClaimerTest, NoClaimerAdmittedShedsEveryCallOnItsOwn) {
  ServiceRegistry registry;
  register_tag(registry);
  Dispatcher dispatcher;
  ThreadPool pool(2, "app", /*queue_capacity=*/1);
  WorkerHold hold(pool);
  ASSERT_TRUE(pool.try_submit([] {}));  // takes the one queue slot

  const wire::ParsedRequest request = tag_request(5);
  const auto outcomes = dispatcher.execute(request, registry, &pool);
  expect_in_request_order(request, outcomes);
  for (const IndexedOutcome& outcome : outcomes) {
    ASSERT_FALSE(outcome.outcome.ok());
    EXPECT_EQ(outcome.outcome.error().code(), ErrorCode::kCapacityExceeded);
    EXPECT_EQ(outcome.outcome.error().message(),
              "application stage queue is full");
  }
  EXPECT_EQ(dispatcher.stats().queue_full_shed, 5u);
  EXPECT_EQ(dispatcher.stats().calls_dispatched, 0u);
}

TEST(DispatcherClaimerTest, OneAdmittedClaimerRunsEveryCall) {
  // W = 2 held workers and one queue slot: the first claimer takes the
  // slot and the second is refused. The intake closes before the workers
  // are freed, so the second stays refused (queue full, or closed) however
  // late it is tried; the closed pool still drains the admitted claimer.
  ServiceRegistry registry;
  register_tag(registry);
  Dispatcher dispatcher;
  ThreadPool pool(2, "app", /*queue_capacity=*/1);
  const wire::ParsedRequest request = tag_request(6);
  std::vector<IndexedOutcome> outcomes;
  {
    WorkerHold hold(pool);
    std::jthread protocol(
        [&] { outcomes = dispatcher.execute(request, registry, &pool); });
    while (pool.queue_depth() == 0) std::this_thread::yield();
    std::jthread closer([&] { pool.shutdown(); });
    while (pool.accepting()) std::this_thread::yield();
    hold.release();
  }  // joins the closer (the pool has drained) and the protocol thread

  EXPECT_EQ(pool.completed_tasks(), 3u);  // two holds, one claimer
  expect_in_request_order(request, outcomes);
  for (const IndexedOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.outcome.ok()) << outcome.outcome.error().to_string();
  }
  EXPECT_EQ(dispatcher.stats().queue_full_shed, 0u);
  EXPECT_EQ(dispatcher.stats().calls_dispatched, 6u);
}

TEST(DispatcherClaimerTest, CountersSplitCallsReceivedUnderAFullQueue) {
  // Every call received is counted once: dispatched when a claimer picks
  // it up, or rejected by the fan-out cap, or shed by the full queue.
  Dispatcher dispatcher;
  soap::EnvelopeLimits limits;
  limits.max_fanout = 3;
  dispatcher.set_limits(xml::ParseLimits{}, limits);
  ServiceRegistry registry;
  register_tag(registry);
  ThreadPool pool(1, "app", /*queue_capacity=*/1);
  {
    WorkerHold hold(pool);
    ASSERT_TRUE(pool.try_submit([] {}));
    (void)dispatcher.execute(tag_request(5), registry, &pool);

    // A plan the queue refused was not dispatched either.
    wire::ParsedRequest plan_request;
    plan_request.kind = wire::ParsedRequest::Kind::kPlan;
    PlanStep step;
    step.service = "S";
    step.operation = "Tag";
    plan_request.plan.steps.push_back(step);
    (void)dispatcher.execute(plan_request, registry, &pool);
    EXPECT_EQ(dispatcher.stats().queue_full_shed, 3u + 1u);
    EXPECT_EQ(dispatcher.stats().calls_dispatched, 0u);
  }
  while (pool.queue_depth() > 0) std::this_thread::yield();
  (void)dispatcher.execute(tag_request(4), registry, &pool);

  const Dispatcher::Stats stats = dispatcher.stats();
  EXPECT_EQ(stats.calls_dispatched, 3u);
  EXPECT_EQ(stats.limit_rejected_calls, 2u + 1u);
  const std::uint64_t shed_calls = stats.queue_full_shed - 1;  // less the plan
  EXPECT_EQ(stats.calls_dispatched + stats.limit_rejected_calls + shed_calls,
            5u + 4u);
}

}  // namespace
}  // namespace spi::core
