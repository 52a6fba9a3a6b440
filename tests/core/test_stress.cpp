// Mixed-strategy stress: many client threads hammer one staged server with
// every request style at once (singles, packed batches, plans, batch
// futures, faults); every response must be correct and attributable.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/auto_batcher.hpp"
#include "core/client.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "services/echo.hpp"

namespace spi::core {
namespace {

using soap::Value;

TEST(SpiStressTest, MixedStrategiesUnderConcurrency) {
  net::SimTransport transport;
  ServiceRegistry registry;
  services::register_echo_service(registry);
  (void)registry.register_operation(
      "Math", "Square", [](const soap::Struct& params) -> Result<Value> {
        auto n = require_int(params, "n");
        if (!n.ok()) return n.error();
        return Value(n.value() * n.value());
      });

  ServerOptions options;
  options.protocol_threads = 16;
  options.application_threads = 16;
  SpiServer server(transport, net::Endpoint{"server", 80}, registry,
                   options);
  ASSERT_TRUE(server.start().ok());

  constexpr int kThreads = 6;
  constexpr int kRounds = 30;
  std::atomic<int> errors{0};
  std::atomic<std::uint64_t> calls_made{0};
  std::atomic<std::uint64_t> faults_injected{0};

  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        SpiClient client(transport, server.endpoint());
        for (int round = 0; round < kRounds; ++round) {
          int style = (t + round) % 4;
          switch (style) {
            case 0: {  // single call
              std::string payload = "t";
              payload += std::to_string(t);
              payload += 'r';
              payload += std::to_string(round);
              auto outcome = client.call("EchoService", "Echo",
                                         {{"data", Value(payload)}});
              ++calls_made;
              if (!outcome.ok() ||
                  outcome.value().as_string() != payload) {
                ++errors;
              }
              break;
            }
            case 1: {  // packed batch with one deliberate fault
              std::vector<ServiceCall> calls;
              for (int i = 0; i < 6; ++i) {
                calls.push_back(make_call(
                    "Math", "Square",
                    {{"n", Value(t * 1000 + round * 10 + i)}}));
              }
              calls.push_back(make_call("Math", "NoSuchOp"));
              ++faults_injected;
              auto outcomes = client.call_packed(calls);
              calls_made += calls.size();
              for (int i = 0; i < 6; ++i) {
                std::int64_t n = t * 1000 + round * 10 + i;
                if (!outcomes[static_cast<size_t>(i)].ok() ||
                    outcomes[static_cast<size_t>(i)].value().as_int() !=
                        n * n) {
                  ++errors;
                }
              }
              if (outcomes[6].ok()) ++errors;  // must be a fault
              break;
            }
            case 2: {  // remote plan: square then square again
              RemotePlan plan;
              plan.step("Math", "Square", {PlanArg::value("n", Value(3))})
                  .step("Math", "Square", {PlanArg::ref("n", 0)});
              auto outcomes = client.execute_plan(plan);
              calls_made += 2;
              if (!outcomes.ok() || !outcomes.value()[1].ok() ||
                  outcomes.value()[1].value().as_int() != 81) {
                ++errors;
              }
              break;
            }
            default: {  // Batch futures
              auto batch = client.create_batch();
              auto a = batch.add("Math", "Square", {{"n", Value(5)}});
              auto b = batch.add("EchoService", "Reverse",
                                 {{"data", Value("stress")}});
              batch.execute();
              calls_made += 2;
              auto av = a.get();
              auto bv = b.get();
              if (!av.ok() || av.value().as_int() != 25) ++errors;
              if (!bv.ok() || bv.value().as_string() != "sserts") ++errors;
              break;
            }
          }
        }
      });
    }
  }

  EXPECT_EQ(errors.load(), 0);
  auto stats = server.stats();
  EXPECT_EQ(stats.dispatcher.calls_dispatched, calls_made.load());
  // The server saw exactly the faults we injected, no more.
  EXPECT_EQ(stats.dispatcher.faults_produced, faults_injected.load());
  server.stop();
}

TEST(SpiStressTest, AutoBatcherSharedAcrossManyProducers) {
  net::SimTransport transport;
  ServiceRegistry registry;
  services::register_echo_service(registry);
  SpiServer server(transport, net::Endpoint{"server", 80}, registry);
  ASSERT_TRUE(server.start().ok());
  SpiClient client(transport, server.endpoint());

  AutoBatcher::Options options;
  options.max_batch = 16;
  options.max_delay = std::chrono::milliseconds(1);
  AutoBatcher batcher(client, options);

  std::atomic<int> errors{0};
  {
    std::vector<std::jthread> producers;
    for (int t = 0; t < 8; ++t) {
      producers.emplace_back([&, t] {
        std::vector<std::pair<std::string, std::future<CallOutcome>>> inflight;
        for (int i = 0; i < 40; ++i) {
          std::string payload =
              std::to_string(t) + "#" + std::to_string(i);
          inflight.emplace_back(payload,
                                batcher.call_async("EchoService", "Echo",
                                                   {{"data", Value(payload)}}));
        }
        for (auto& [payload, future] : inflight) {
          auto outcome = future.get();
          if (!outcome.ok() || outcome.value().as_string() != payload) {
            ++errors;
          }
        }
      });
    }
  }
  EXPECT_EQ(errors.load(), 0);
  auto stats = batcher.stats();
  EXPECT_EQ(stats.calls, 320u);
  EXPECT_LT(stats.batches, 320u);  // actual coalescing happened
  server.stop();
}

}  // namespace
}  // namespace spi::core
