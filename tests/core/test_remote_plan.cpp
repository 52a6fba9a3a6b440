// Remote execution (the SPI suite's second interface): path resolution,
// plan validation, wire round trips, dependency semantics, and the full
// client->server chain including the travel-agent tail sequence.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/remote_plan.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "services/airline.hpp"
#include "services/creditcard.hpp"
#include "soap/envelope.hpp"

namespace spi::core {
namespace {

using soap::Value;

// --- resolve_result_path -------------------------------------------------------

TEST(ResolvePathTest, EmptyPathReturnsWholeValue) {
  Value value(soap::Struct{{"a", Value(1)}});
  auto resolved = resolve_result_path(value, "");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), value);
}

TEST(ResolvePathTest, WalksNestedStructs) {
  Value value(soap::Struct{
      {"outer", Value(soap::Struct{{"inner", Value("found")}})}});
  auto resolved = resolve_result_path(value, "outer.inner");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), Value("found"));
}

TEST(ResolvePathTest, IndexesArrays) {
  Value value(soap::Struct{
      {"flights", Value(soap::Array{
                      Value(soap::Struct{{"id", Value("F-0")}}),
                      Value(soap::Struct{{"id", Value("F-1")}}),
                  })}});
  auto resolved = resolve_result_path(value, "flights[1].id");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), Value("F-1"));
}

TEST(ResolvePathTest, SupportsNestedIndexing) {
  Value value(soap::Array{Value(soap::Array{Value(1), Value(2)})});
  // A bare [i][j] segment indexes the current value without a field walk...
  Value wrapped(soap::Struct{{"m", value}});
  auto resolved = resolve_result_path(wrapped, "m[0][1]");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), Value(2));
}

TEST(ResolvePathTest, ErrorsAreDescriptive) {
  Value value(soap::Struct{{"a", Value(soap::Array{Value(1)})}});
  EXPECT_FALSE(resolve_result_path(value, "missing").ok());
  EXPECT_FALSE(resolve_result_path(value, "a[5]").ok());     // out of range
  EXPECT_FALSE(resolve_result_path(value, "a.b").ok());      // not a struct
  EXPECT_FALSE(resolve_result_path(value, "a[x]").ok());     // bad index
  EXPECT_FALSE(resolve_result_path(value, "a[0").ok());      // unterminated
  EXPECT_FALSE(resolve_result_path(Value(1), "f").ok());     // scalar walk
  EXPECT_FALSE(resolve_result_path(value, "a..b").ok());     // empty segment
}

// --- validation ------------------------------------------------------------------

TEST(PlanValidateTest, AcceptsWellFormedPlan) {
  RemotePlan plan;
  plan.step("S", "First", {PlanArg::value("x", Value(1))})
      .step("S", "Second", {PlanArg::ref("y", 0, "field")});
  EXPECT_TRUE(plan.validate().ok());
}

TEST(PlanValidateTest, RejectsEmptyPlan) {
  EXPECT_FALSE(RemotePlan{}.validate().ok());
}

TEST(PlanValidateTest, RejectsForwardAndSelfReferences) {
  RemotePlan self;
  self.step("S", "Op", {PlanArg::ref("x", 0)});
  EXPECT_FALSE(self.validate().ok());

  RemotePlan forward;
  forward.step("S", "Op", {PlanArg::ref("x", 1)}).step("S", "Op2");
  EXPECT_FALSE(forward.validate().ok());
}

TEST(PlanValidateTest, RejectsAnonymousArgsAndEmptyNames) {
  RemotePlan plan;
  plan.step("S", "Op", {PlanArg::value("", Value(1))});
  EXPECT_FALSE(plan.validate().ok());
  RemotePlan no_service;
  no_service.step("", "Op");
  EXPECT_FALSE(no_service.validate().ok());
}

// --- wire round trip ----------------------------------------------------------------

TEST(PlanWireTest, SerializeParseRoundTrip) {
  RemotePlan plan;
  plan.step("Airline", "Reserve",
            {PlanArg::value("flight_id", Value("NB-9"))})
      .step("Card", "Authorize",
            {PlanArg::value("card_number", Value("4111111111111111")),
             PlanArg::ref("amount_cents", 0, "price_cents")})
      .step("Airline", "ConfirmReservation",
            {PlanArg::ref("reservation_id", 0, "reservation_id"),
             PlanArg::ref("authorization_id", 1, "authorization_id")});

  auto document = xml::parse_document(serialize_plan(plan));
  ASSERT_TRUE(document.ok());
  auto parsed = parse_plan(document.value().root, document.value().source);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value(), plan);
}

TEST(PlanWireTest, ParseRejectsMalformedPlans) {
  auto parse_fragment = [](std::string_view xml) {
    auto document = xml::parse_document(std::string(xml));
    EXPECT_TRUE(document.ok());
    return parse_plan(document.value().root, document.value().source);
  };
  EXPECT_FALSE(parse_fragment("<spi:NotAPlan/>").ok());
  // Step ids must be dense ascending.
  EXPECT_FALSE(parse_fragment(
                   R"(<spi:Remote_Execution><spi:Step id="1" service="S" operation="O"/></spi:Remote_Execution>)")
                   .ok());
  // Arg needs name + Value or Ref.
  EXPECT_FALSE(parse_fragment(
                   R"(<spi:Remote_Execution><spi:Step id="0" service="S" operation="O"><spi:Arg name="x"/></spi:Step></spi:Remote_Execution>)")
                   .ok());
  // Ref without step attribute.
  EXPECT_FALSE(parse_fragment(
                   R"(<spi:Remote_Execution><spi:Step id="0" service="S" operation="O"><spi:Arg name="x"><spi:Ref/></spi:Arg></spi:Step></spi:Remote_Execution>)")
                   .ok());
  // Forward reference caught at parse time.
  EXPECT_FALSE(parse_fragment(
                   R"(<spi:Remote_Execution><spi:Step id="0" service="S" operation="O"><spi:Arg name="x"><spi:Ref step="0"/></spi:Arg></spi:Step></spi:Remote_Execution>)")
                   .ok());
}

// --- execution -------------------------------------------------------------------

class PlanExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)registry_.register_operation(
        "Math", "MakePair", [](const soap::Struct&) -> Result<Value> {
          return Value(soap::Struct{{"left", Value(10)}, {"right", Value(32)}});
        });
    (void)registry_.register_operation(
        "Math", "Add", [](const soap::Struct& params) -> Result<Value> {
          std::int64_t sum = 0;
          for (const auto& [name, value] : params) sum += value.as_int();
          return Value(sum);
        });
    (void)registry_.register_operation(
        "Math", "Fail", [](const soap::Struct&) -> Result<Value> {
          return Error(ErrorCode::kInternal, "deliberate");
        });
  }
  ServiceRegistry registry_;
};

TEST_F(PlanExecutionTest, ChainsResults) {
  RemotePlan plan;
  plan.step("Math", "MakePair")
      .step("Math", "Add",
            {PlanArg::ref("a", 0, "left"), PlanArg::ref("b", 0, "right")});
  auto outcomes = execute_plan(plan, registry_);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[1].outcome.ok());
  EXPECT_EQ(outcomes[1].outcome.value().as_int(), 42);
}

TEST_F(PlanExecutionTest, DependencyOnFailedStepFaultsWithoutRunning) {
  RemotePlan plan;
  plan.step("Math", "Fail")
      .step("Math", "Add", {PlanArg::ref("a", 0)})
      .step("Math", "Add", {PlanArg::value("a", Value(1))});
  auto outcomes = execute_plan(plan, registry_);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].outcome.ok());
  ASSERT_FALSE(outcomes[1].outcome.ok());
  EXPECT_NE(outcomes[1].outcome.error().message().find("failed step 0"),
            std::string::npos);
  // Independent step 2 still executed.
  ASSERT_TRUE(outcomes[2].outcome.ok());
  EXPECT_EQ(outcomes[2].outcome.value().as_int(), 1);
}

TEST_F(PlanExecutionTest, BadPathFaultsTheDependentStepOnly) {
  RemotePlan plan;
  plan.step("Math", "MakePair")
      .step("Math", "Add", {PlanArg::ref("a", 0, "no_such_field")});
  auto outcomes = execute_plan(plan, registry_);
  EXPECT_TRUE(outcomes[0].outcome.ok());
  ASSERT_FALSE(outcomes[1].outcome.ok());
  EXPECT_NE(outcomes[1].outcome.error().message().find("no_such_field"),
            std::string::npos);
}

// --- end to end ------------------------------------------------------------------

TEST(PlanEndToEndTest, TravelTailSequenceInOneMessage) {
  net::SimTransport transport;
  ServiceRegistry registry;
  auto airlines = services::make_demo_airlines(/*seed=*/5);
  for (auto& airline : airlines) airline->register_with(registry);
  services::CreditCardService card("CardGate", /*seed=*/5);
  card.register_with(registry);

  SpiServer server(transport, net::Endpoint{"server", 80}, registry);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport, server.endpoint());

  // Reserve -> Authorize(price from step 0) -> Confirm(ids from 0 and 1):
  // three dependent calls, ONE SOAP message.
  RemotePlan plan;
  plan.step("NimbusAir", "Reserve",
            {PlanArg::value("flight_id", Value("NB-9"))})
      .step("CardGate", "Authorize",
            {PlanArg::value("card_number", Value("4111111111111111")),
             PlanArg::ref("amount_cents", 0, "price_cents")})
      .step("NimbusAir", "ConfirmReservation",
            {PlanArg::ref("reservation_id", 0, "reservation_id"),
             PlanArg::ref("authorization_id", 1, "authorization_id")});

  auto outcomes = client.execute_plan(plan);
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  ASSERT_EQ(outcomes.value().size(), 3u);
  for (const auto& outcome : outcomes.value()) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }
  EXPECT_EQ(outcomes.value()[2].value(), Value(true));

  // Server-side effects: seat held and confirmed, payment authorized.
  services::Airline* nimbus = airlines[2].get();
  EXPECT_EQ(nimbus->confirmed_reservations(), 1u);
  EXPECT_EQ(nimbus->seats_available("NB-9"), 1);
  EXPECT_EQ(card.authorized_total("4111111111111111"), 72'300);

  // One HTTP request carried all three invocations.
  EXPECT_EQ(server.stats().http_requests, 1u);
  EXPECT_EQ(server.stats().dispatcher.calls_dispatched, 3u);
  server.stop();
}

TEST(PlanEndToEndTest, InvalidPlanRejectedClientSide) {
  net::SimTransport transport;
  ServiceRegistry registry;
  SpiServer server(transport, net::Endpoint{"server", 80}, registry);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport, server.endpoint());

  RemotePlan bad;  // empty
  auto outcomes = client.execute_plan(bad);
  ASSERT_FALSE(outcomes.ok());
  EXPECT_EQ(outcomes.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.stats().http_requests, 0u);  // never hit the wire
  server.stop();
}

TEST(PlanEndToEndTest, CoupledServerExecutesPlansToo) {
  net::SimTransport transport;
  ServiceRegistry registry;
  (void)registry.register_operation(
      "S", "Id", [](const soap::Struct& params) -> Result<Value> {
        return params.empty() ? Value(0) : params[0].second;
      });
  ServerOptions options;
  options.staged = false;
  SpiServer server(transport, net::Endpoint{"server", 80}, registry,
                   options);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport, server.endpoint());

  RemotePlan plan;
  plan.step("S", "Id", {PlanArg::value("x", Value(7))})
      .step("S", "Id", {PlanArg::ref("x", 0)});
  auto outcomes = client.execute_plan(plan);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ(outcomes.value()[1].value().as_int(), 7);
  server.stop();
}

}  // namespace
}  // namespace spi::core
