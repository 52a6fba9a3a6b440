// End-to-end resilience: deadline shedding at both server stages, retry
// with partial-batch re-pack (only failed sub-calls replayed, proven by
// server-side execution counters), idempotency gating, circuit-breaker
// fast-fail and half-open recovery, and seeded chaos runs driven by the
// SPI_CHAOS_FAULT / SPI_CHAOS_SEED environment (the CI chaos matrix). The
// ladder cases run again on both drivers of the one retry/re-pack ladder
// (ResilienceE2eDriversTest), which must agree.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include "benchsupport/workload.hpp"
#include "codec/bxml.hpp"
#include "common/clock.hpp"
#include "concurrency/reactor.hpp"
#include "core/client.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "http/message.hpp"
#include "net/faulty_transport.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "resilience/circuit_breaker.hpp"
#include "services/echo.hpp"
#include "soap/envelope.hpp"

namespace spi::core {
namespace {

using net::FaultPlan;
using net::FaultyTransport;
using soap::Value;

class ResilienceE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    services::register_echo_service(registry_);
    // Counting service: every handler records that it actually executed,
    // which is how the tests below PROVE what was and was not replayed.
    ServiceBinder binder(registry_, "CountService");
    binder.bind_idempotent("Ok", [this](const soap::Struct&) -> Result<Value> {
      ok_runs_.fetch_add(1);
      return Value("ok");
    });
    // Fails its first invocation with CapacityExceeded — a fault the
    // server only emits for work it did NOT execute — then succeeds.
    binder.bind(
        "Flaky",
        [this](const soap::Struct&) -> Result<Value> {
          flaky_runs_.fetch_add(1);
          if (flaky_failures_left_.fetch_sub(1) > 0) {
            return Error(ErrorCode::kCapacityExceeded, "induced rejection");
          }
          return Value("recovered");
        },
        {true});
    binder.bind("Mutate", [this](const soap::Struct&) -> Result<Value> {
      mutate_runs_.fetch_add(1);
      return Value("mutated");
    });

    server_ = std::make_unique<SpiServer>(inner_, net::Endpoint{"server", 80},
                                          registry_);
    ASSERT_TRUE(server_->start().ok());
  }

  std::unique_ptr<SpiClient> faulty_client(FaultPlan plan,
                                           ClientOptions options = {}) {
    faulty_ = std::make_unique<FaultyTransport>(inner_, plan);
    return std::make_unique<SpiClient>(*faulty_, server_->endpoint(),
                                       std::move(options));
  }

  ClientOptions retrying_options(int max_attempts) {
    ClientOptions options;
    options.retry.max_attempts = max_attempts;
    options.retry.initial_backoff = std::chrono::milliseconds(1);
    options.retry.idempotent = registry_.idempotency_predicate();
    return options;
  }

  void expect_server_still_healthy() {
    SpiClient clean(inner_, server_->endpoint());
    auto outcome =
        clean.call("EchoService", "Echo", {{"data", Value("probe")}});
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(outcome.value().as_string(), "probe");
  }

  /// POSTs a raw envelope, labelled with `content_encoding` when one is
  /// given, and reads the full HTTP response (connection closed by the
  /// server). Bypasses SpiClient so expired deadlines reach the server
  /// instead of being failed client-side.
  std::string raw_post(std::string body,
                       std::string_view content_encoding = {}) {
    http::Request request;
    request.method = "POST";
    request.target = "/spi";
    request.headers.set("Content-Type", "text/xml");
    request.headers.set("Connection", "close");
    if (!content_encoding.empty()) {
      request.headers.set("Content-Encoding", content_encoding);
    }
    request.body = std::move(body);
    auto connection = inner_.connect(server_->endpoint());
    EXPECT_TRUE(connection.ok());
    if (!connection.ok()) return {};
    EXPECT_TRUE(connection.value()->send(request.serialize()).ok());
    std::string response;
    while (true) {
      auto bytes = connection.value()->receive(64 * 1024);
      if (!bytes.ok()) break;
      response += bytes.value();
    }
    return response;
  }

  net::SimTransport inner_;
  std::unique_ptr<FaultyTransport> faulty_;
  ServiceRegistry registry_;
  std::unique_ptr<SpiServer> server_;
  std::atomic<int> ok_runs_{0};
  std::atomic<int> flaky_runs_{0};
  std::atomic<int> mutate_runs_{0};
  std::atomic<int> flaky_failures_left_{1};
};

// --- deadline shedding ------------------------------------------------------

TEST_F(ResilienceE2eTest, ExpiredDeadlineIsShedBeforeParse) {
  std::string envelope = soap::build_envelope(
      "<spi:Echo/>",
      {"<spi:Deadline><spi:RemainingUs>-5000</spi:RemainingUs>"
       "</spi:Deadline>"});
  std::string response = raw_post(std::move(envelope));
  EXPECT_NE(response.find("504"), std::string::npos) << response;
  EXPECT_NE(response.find("DeadlineExceeded"), std::string::npos) << response;
  EXPECT_EQ(server_->stats().deadline_shed_pre_parse, 1u);
  EXPECT_EQ(server_->stats().dispatcher.deadline_shed, 0u)
      << "shed before parse, not at execute";
  expect_server_still_healthy();
}

TEST_F(ResilienceE2eTest, ExpiredDeadlineIsShedBeforeParseUnderBxml) {
  // A bxml body is decoded to text at the edge, so the same pre-parse scan
  // sheds it before the parse stage.
  codec::BxmlCodec bxml;
  auto wire = bxml.encode(soap::build_envelope(
      "<spi:Echo/>",
      {"<spi:Deadline><spi:RemainingUs>-5000</spi:RemainingUs>"
       "</spi:Deadline>"}));
  ASSERT_TRUE(wire.ok()) << wire.error().to_string();
  std::string response = raw_post(std::move(wire).value(), "bxml");
  EXPECT_NE(response.find("504"), std::string::npos) << response;
  EXPECT_NE(response.find("DeadlineExceeded"), std::string::npos) << response;
  EXPECT_EQ(server_->stats().deadline_shed_pre_parse, 1u);
  EXPECT_EQ(server_->stats().dispatcher.deadline_shed, 0u)
      << "shed before parse, not at execute";
  expect_server_still_healthy();
}

TEST_F(ResilienceE2eTest, DeadlineExpiringMidBatchShedsQueuedCalls) {
  // One application thread: the second Delay call sits queued behind the
  // first until long after the 60ms budget is gone; the execute stage must
  // shed it instead of running it.
  ServerOptions options;
  options.application_threads = 1;
  SpiServer narrow(inner_, net::Endpoint{"narrow", 80}, registry_, options);
  ASSERT_TRUE(narrow.start().ok());

  ClientOptions client_options;
  client_options.call_timeout = std::chrono::milliseconds(60);
  SpiClient client(inner_, narrow.endpoint(), client_options);
  std::vector<ServiceCall> calls = {
      make_call("EchoService", "Delay", {{"milliseconds", Value(250)}}),
      make_call("EchoService", "Delay", {{"milliseconds", Value(250)}}),
  };
  // The client's receive timeout is clamped to the deadline budget, so the
  // call fails locally; what matters is the server-side shed.
  (void)client.call_packed(calls);
  Stopwatch waited;
  while (narrow.stats().dispatcher.deadline_shed == 0 &&
         waited.elapsed_ms() < 3000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(narrow.stats().dispatcher.deadline_shed, 1u);
  narrow.stop();
}

TEST_F(ResilienceE2eTest, ClientFailsFastWhenDeadlineAlreadySpent) {
  // An ambient (caller-inherited) deadline that is already expired: the
  // client must fail locally before writing a byte.
  SpiClient client(inner_, server_->endpoint());
  resilience::Deadline spent =
      resilience::Deadline::after(std::chrono::milliseconds(-5));
  resilience::DeadlineScope scope(spent);
  Stopwatch stopwatch;
  auto outcome = client.call("EchoService", "Echo", {{"data", Value("x")}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(stopwatch.elapsed_ms(), 50.0);
}

// --- retry ------------------------------------------------------------------

TEST_F(ResilienceE2eTest, RefusedConnectsAreRetriedToSuccess) {
  FaultPlan plan;
  plan.refuse_connects = 2;
  auto client = faulty_client(plan, retrying_options(4));
  auto outcome = client->call("EchoService", "Echo", {{"data", Value("x")}});
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().as_string(), "x");
  EXPECT_EQ(client->stats().retries, 2u);
}

TEST_F(ResilienceE2eTest, NonIdempotentOperationIsNeverRetriedAfterWrite) {
  FaultPlan plan;
  plan.sever_after_bytes = 100;  // request bytes were written, then cut
  auto client = faulty_client(plan, retrying_options(4));
  auto outcome = client->call("CountService", "Mutate", {});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kConnectionClosed);
  EXPECT_EQ(client->stats().retries, 0u)
      << "a severed non-idempotent call may have executed; replay forbidden";
  EXPECT_EQ(mutate_runs_.load(), 0);
  expect_server_still_healthy();
}

TEST_F(ResilienceE2eTest, SameSeverIsRetriedWhenIdempotent) {
  // Contrast case: identical fault, idempotent operation -> retries run
  // (every attempt severs, so the call still fails, but the gate opened).
  FaultPlan plan;
  plan.sever_after_bytes = 100;
  auto client = faulty_client(plan, retrying_options(3));
  auto outcome = client->call("EchoService", "Echo", {{"data", Value("x")}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(client->stats().retries, 2u);
}

// --- partial-batch re-pack --------------------------------------------------

TEST_F(ResilienceE2eTest, OnlyFailedSubCallsAreReplayed) {
  auto client = faulty_client(FaultPlan{}, retrying_options(3));
  std::vector<ServiceCall> calls = {
      make_call("CountService", "Ok", {}),
      make_call("CountService", "Flaky", {}),
      make_call("CountService", "Ok", {}),
  };
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error().to_string();
  }
  EXPECT_EQ(outcomes[1].value().as_string(), "recovered");
  // Server-side proof: the healthy siblings ran exactly once; only the
  // failed sub-call travelled in the replay message.
  EXPECT_EQ(ok_runs_.load(), 2);
  EXPECT_EQ(flaky_runs_.load(), 2);
  EXPECT_EQ(client->stats().partial_repacks, 1u);
  EXPECT_EQ(client->stats().retries, 1u);
}

TEST_F(ResilienceE2eTest, SingleCallBatchRepackDegenerate) {
  auto client = faulty_client(FaultPlan{}, retrying_options(3));
  std::vector<ServiceCall> calls = {make_call("CountService", "Flaky", {})};
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].ok()) << outcomes[0].error().to_string();
  EXPECT_EQ(flaky_runs_.load(), 2);
  EXPECT_EQ(client->stats().partial_repacks, 1u);
}

TEST_F(ResilienceE2eTest, TraditionalSingleCallIsAlsoReplayed) {
  auto client = faulty_client(FaultPlan{}, retrying_options(3));
  auto outcome = client->call("CountService", "Flaky", {});
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(outcome.value().as_string(), "recovered");
  EXPECT_EQ(flaky_runs_.load(), 2);
}

TEST_F(ResilienceE2eTest, TerminalFaultsAreNotReplayed) {
  auto client = faulty_client(FaultPlan{}, retrying_options(3));
  std::vector<ServiceCall> calls = {
      make_call("CountService", "Ok", {}),
      make_call("NoSuchService", "Nope", {}),  // NotFound: a real answer
  };
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(client->stats().partial_repacks, 0u);
  EXPECT_EQ(ok_runs_.load(), 1);
}

// --- circuit breaker --------------------------------------------------------

TEST_F(ResilienceE2eTest, BreakerOpensFailsFastAndRecovers) {
  ManualClock breaker_clock;
  resilience::CircuitBreakerOptions breaker_options;
  breaker_options.window_size = 4;
  breaker_options.min_samples = 2;
  breaker_options.failure_ratio = 0.5;
  breaker_options.open_cooldown = std::chrono::milliseconds(100);
  resilience::CircuitBreakerSet breakers(breaker_options, breaker_clock);

  FaultPlan plan;
  plan.refuse_connects = 2;
  ClientOptions options;
  options.breakers = &breakers;
  auto client = faulty_client(plan, options);

  for (int i = 0; i < 2; ++i) {
    auto outcome = client->call("EchoService", "Echo", {{"data", Value("x")}});
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code(), ErrorCode::kConnectionFailed);
  }
  ASSERT_EQ(breakers.for_endpoint(server_->endpoint()).state(),
            resilience::BreakerState::kOpen);

  // Open: fail fast, no connect, well under a millisecond.
  Stopwatch stopwatch;
  auto rejected = client->call("EchoService", "Echo", {{"data", Value("x")}});
  double fast_fail_ms = stopwatch.elapsed_ms();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kUnavailable);
  EXPECT_LT(fast_fail_ms, 1.0) << "open breaker must answer in <1ms";
  EXPECT_EQ(client->stats().breaker_fast_fails, 1u);

  // Cooldown elapses; the half-open probe hits a now-healthy transport
  // (both refusals are spent) and closes the breaker.
  breaker_clock.advance(std::chrono::milliseconds(150));
  auto probe = client->call("EchoService", "Echo", {{"data", Value("y")}});
  ASSERT_TRUE(probe.ok()) << probe.error().to_string();
  EXPECT_EQ(breakers.for_endpoint(server_->endpoint()).state(),
            resilience::BreakerState::kClosed);
  auto after = client->call("EchoService", "Echo", {{"data", Value("z")}});
  EXPECT_TRUE(after.ok());
}

// --- seeded chaos (the CI matrix entry point) -------------------------------

struct ChaosConfig {
  std::string kind = "sever";
  std::uint64_t seed = 42;
  double rate = 0.05;
};

ChaosConfig chaos_config_from_env() {
  ChaosConfig config;
  if (const char* kind = std::getenv("SPI_CHAOS_FAULT")) config.kind = kind;
  if (const char* seed = std::getenv("SPI_CHAOS_SEED")) {
    config.seed = std::strtoull(seed, nullptr, 10);
  }
  return config;
}

TEST_F(ResilienceE2eTest, SeededChaosMatrixKeepsGoodputWithRetries) {
  ChaosConfig config = chaos_config_from_env();
  FaultPlan plan;
  plan.seed = config.seed;
  if (config.kind == "drop") {
    plan.refuse_rate = config.rate;
  } else if (config.kind == "corrupt") {
    plan.corrupt_rate = config.rate;
  } else {
    plan.sever_rate = config.rate;
  }

  ClientOptions options = retrying_options(4);
  options.retry.budget = 50.0;
  auto client = faulty_client(plan, options);

  constexpr size_t kMessages = 200;
  constexpr size_t kCallsPerMessage = 5;
  size_t ok = 0;
  for (size_t i = 0; i < kMessages; ++i) {
    auto calls = bench::make_echo_calls(kCallsPerMessage, 64, i);
    auto outcomes = client->call_packed(calls);
    for (const auto& outcome : outcomes) {
      if (outcome.ok()) ++ok;
    }
  }
  const size_t total = kMessages * kCallsPerMessage;
  double success = static_cast<double>(ok) / static_cast<double>(total);
  auto stats = faulty_->fault_stats();
  RecordProperty("chaos_kind", config.kind);
  RecordProperty("chaos_success_permille",
                 static_cast<int>(success * 1000.0));
  RecordProperty("chaos_injected",
                 static_cast<int>(stats.refusals + stats.severs +
                                  stats.corruptions));
  // The run must actually exercise the fault it claims to.
  EXPECT_GE(stats.refusals + stats.severs + stats.corruptions, 1u);
  if (config.kind == "corrupt") {
    // Corruption is not retryable (a flipped payload byte can even echo
    // back "successfully"); the bar is surviving it, not goodput.
    EXPECT_GE(success, 0.90);
  } else {
    EXPECT_GE(success, 0.99);
  }
  expect_server_still_healthy();
}

TEST_F(ResilienceE2eTest, OnePercentSeverMeetsTheGoodputBar) {
  // Acceptance bar from the chaos study: >= 99.9% packed sub-call success
  // at a 1% connection-sever rate with retries + budget enabled.
  FaultPlan plan;
  plan.sever_rate = 0.01;
  plan.seed = 42;
  ClientOptions options = retrying_options(4);
  options.retry.budget = 50.0;
  auto client = faulty_client(plan, options);

  constexpr size_t kMessages = 200;
  constexpr size_t kCallsPerMessage = 5;
  size_t ok = 0;
  for (size_t i = 0; i < kMessages; ++i) {
    auto calls = bench::make_echo_calls(kCallsPerMessage, 64, 1000 + i);
    auto outcomes = client->call_packed(calls);
    for (const auto& outcome : outcomes) {
      if (outcome.ok()) ++ok;
    }
  }
  double success = static_cast<double>(ok) /
                   static_cast<double>(kMessages * kCallsPerMessage);
  EXPECT_GE(success, 0.999) << "ok=" << ok;
  expect_server_still_healthy();
}

// --- the ladder on both drivers ---------------------------------------------
// One retry/re-pack ladder, two drivers: blocking (HttpClient over
// SimTransport, the server on its blocking driver) and async
// (AsyncHttpClient over loopback TCP, the server on its reactor driver).
// Each case runs the same FaultyTransport plan and handlers on both, and
// the drivers must agree on every outcome, the server-side run counts,
// retries, partial re-packs and breaker fast-fails.
//
// Left on the blocking driver alone: the two seeded chaos goodput cases.
// The async client keeps connections alive and a FaultPlan draws its
// faults per connection, so the same seed and rate would fault far fewer
// messages there; the goodput bars are set for a connection per message.

enum class Driver { kBlocking, kAsync };
constexpr Driver kDrivers[] = {Driver::kBlocking, Driver::kAsync};

/// What one driver made of a case.
struct LadderRun {
  std::vector<CallOutcome> outcomes;
  int ok_runs = 0;
  int flaky_runs = 0;
  int mutate_runs = 0;
  SpiClient::Stats stats;
};

class ResilienceE2eDriversTest : public ResilienceE2eTest {
 protected:
  void SetUp() override {
    ResilienceE2eTest::SetUp();
    tcp_server_ = std::make_unique<SpiServer>(
        tcp_, net::Endpoint{"127.0.0.1", 0}, registry_);
    ASSERT_TRUE(tcp_server_->start().ok());
    ASSERT_TRUE(tcp_server_->http_server().reactor_mode());
    reactor_.start();
  }

  void TearDown() override { tcp_server_->stop(); }

  /// A client on `driver` whose connections go through a fresh
  /// FaultyTransport with `plan`. Members die in reverse: the client waits
  /// out its exchanges before the async runtime shuts down.
  struct Rig {
    std::unique_ptr<FaultyTransport> faulty;
    std::unique_ptr<http::AsyncHttpClient> async;
    std::unique_ptr<SpiClient> client;
  };

  /// Runs `scenario` on `driver` with the handlers' counters reset.
  LadderRun run_on(
      Driver driver, const FaultPlan& plan, ClientOptions options,
      const std::function<std::vector<CallOutcome>(SpiClient&)>& scenario) {
    ok_runs_ = 0;
    flaky_runs_ = 0;
    mutate_runs_ = 0;
    flaky_failures_left_ = 1;
    Rig rig;
    net::Endpoint server = server_->endpoint();
    if (driver == Driver::kBlocking) {
      rig.faulty = std::make_unique<FaultyTransport>(inner_, plan);
    } else {
      rig.faulty = std::make_unique<FaultyTransport>(tcp_, plan);
      rig.async = std::make_unique<http::AsyncHttpClient>(reactor_,
                                                          *rig.faulty);
      options.async_client = rig.async.get();
      server = tcp_server_->endpoint();
    }
    rig.client =
        std::make_unique<SpiClient>(*rig.faulty, server, std::move(options));
    LadderRun run;
    run.outcomes = scenario(*rig.client);
    run.stats = rig.client->stats();
    run.ok_runs = ok_runs_.load();
    run.flaky_runs = flaky_runs_.load();
    run.mutate_runs = mutate_runs_.load();
    return run;
  }

  /// The case on both drivers; returns the blocking run once the async
  /// run has matched it.
  LadderRun on_both_drivers(
      const FaultPlan& plan, const ClientOptions& options,
      const std::function<std::vector<CallOutcome>(SpiClient&)>& scenario) {
    LadderRun blocking = run_on(Driver::kBlocking, plan, options, scenario);
    LadderRun async = run_on(Driver::kAsync, plan, options, scenario);
    expect_same(blocking, async);
    return blocking;
  }

  static void expect_same(const LadderRun& blocking, const LadderRun& async) {
    ASSERT_EQ(blocking.outcomes.size(), async.outcomes.size());
    for (size_t i = 0; i < blocking.outcomes.size(); ++i) {
      const CallOutcome& b = blocking.outcomes[i];
      const CallOutcome& a = async.outcomes[i];
      ASSERT_EQ(b.ok(), a.ok()) << "outcome " << i << ": blocking "
                                << (b.ok() ? "ok" : b.error().to_string())
                                << ", async "
                                << (a.ok() ? "ok" : a.error().to_string());
      if (b.ok()) {
        EXPECT_EQ(b.value(), a.value()) << "outcome " << i;
      } else {
        EXPECT_EQ(b.error().code(), a.error().code()) << "outcome " << i;
      }
    }
    EXPECT_EQ(blocking.ok_runs, async.ok_runs);
    EXPECT_EQ(blocking.flaky_runs, async.flaky_runs);
    EXPECT_EQ(blocking.mutate_runs, async.mutate_runs);
    EXPECT_EQ(blocking.stats.retries, async.stats.retries);
    EXPECT_EQ(blocking.stats.partial_repacks, async.stats.partial_repacks);
    EXPECT_EQ(blocking.stats.breaker_fast_fails,
              async.stats.breaker_fast_fails);
  }

  /// Sends `calls` as one exchange: packed, or traditional for one call.
  static std::function<std::vector<CallOutcome>(SpiClient&)> one_exchange(
      std::vector<ServiceCall> calls, PackMode mode) {
    return [calls = std::move(calls), mode](SpiClient& client) {
      return client.call_packed(calls, mode);
    };
  }

  static std::vector<ServiceCall> echo_x() {
    return {make_call("EchoService", "Echo", {{"data", Value("x")}})};
  }

  net::TcpTransport tcp_;
  std::unique_ptr<SpiServer> tcp_server_;
  Reactor reactor_;
};

TEST_F(ResilienceE2eDriversTest, RefusedConnectsAreRetriedToSuccess) {
  FaultPlan plan;
  plan.refuse_connects = 2;
  LadderRun run = on_both_drivers(
      plan, retrying_options(4), one_exchange(echo_x(), PackMode::kSingle));
  ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].error().to_string();
  EXPECT_EQ(run.outcomes[0].value().as_string(), "x");
  EXPECT_EQ(run.stats.retries, 2u);
}

TEST_F(ResilienceE2eDriversTest,
       NonIdempotentOperationIsNeverRetriedAfterWrite) {
  FaultPlan plan;
  plan.sever_after_bytes = 100;
  LadderRun run = on_both_drivers(
      plan, retrying_options(4),
      one_exchange({make_call("CountService", "Mutate", {})},
                   PackMode::kSingle));
  ASSERT_FALSE(run.outcomes[0].ok());
  EXPECT_EQ(run.outcomes[0].error().code(), ErrorCode::kConnectionClosed);
  EXPECT_EQ(run.stats.retries, 0u);
  EXPECT_EQ(run.mutate_runs, 0);
}

TEST_F(ResilienceE2eDriversTest, SameSeverIsRetriedWhenIdempotent) {
  FaultPlan plan;
  plan.sever_after_bytes = 100;
  LadderRun run = on_both_drivers(
      plan, retrying_options(3), one_exchange(echo_x(), PackMode::kSingle));
  ASSERT_FALSE(run.outcomes[0].ok());
  EXPECT_EQ(run.stats.retries, 2u);
}

TEST_F(ResilienceE2eDriversTest, OnlyFailedSubCallsAreReplayed) {
  LadderRun run = on_both_drivers(
      FaultPlan{}, retrying_options(3),
      one_exchange({make_call("CountService", "Ok", {}),
                    make_call("CountService", "Flaky", {}),
                    make_call("CountService", "Ok", {})},
                   PackMode::kPacked));
  ASSERT_EQ(run.outcomes.size(), 3u);
  for (const auto& outcome : run.outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error().to_string();
  }
  EXPECT_EQ(run.ok_runs, 2);
  EXPECT_EQ(run.flaky_runs, 2);
  EXPECT_EQ(run.stats.partial_repacks, 1u);
  EXPECT_EQ(run.stats.retries, 1u);
}

TEST_F(ResilienceE2eDriversTest, SingleCallBatchRepackDegenerate) {
  LadderRun run = on_both_drivers(
      FaultPlan{}, retrying_options(3),
      one_exchange({make_call("CountService", "Flaky", {})},
                   PackMode::kPacked));
  ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].error().to_string();
  EXPECT_EQ(run.flaky_runs, 2);
  EXPECT_EQ(run.stats.partial_repacks, 1u);
}

TEST_F(ResilienceE2eDriversTest, TraditionalSingleCallIsAlsoReplayed) {
  LadderRun run = on_both_drivers(
      FaultPlan{}, retrying_options(3),
      one_exchange({make_call("CountService", "Flaky", {})},
                   PackMode::kSingle));
  ASSERT_TRUE(run.outcomes[0].ok()) << run.outcomes[0].error().to_string();
  EXPECT_EQ(run.outcomes[0].value().as_string(), "recovered");
  EXPECT_EQ(run.flaky_runs, 2);
}

TEST_F(ResilienceE2eDriversTest, TerminalFaultsAreNotReplayed) {
  LadderRun run = on_both_drivers(
      FaultPlan{}, retrying_options(3),
      one_exchange({make_call("CountService", "Ok", {}),
                    make_call("NoSuchService", "Nope", {})},
                   PackMode::kPacked));
  ASSERT_EQ(run.outcomes.size(), 2u);
  EXPECT_TRUE(run.outcomes[0].ok());
  EXPECT_FALSE(run.outcomes[1].ok());
  EXPECT_EQ(run.stats.partial_repacks, 0u);
  EXPECT_EQ(run.ok_runs, 1);
}

TEST_F(ResilienceE2eDriversTest, BreakerOpensFailsFastAndRecovers) {
  // Each driver gets its own breaker set on its own manual clock. The
  // under-a-millisecond bound of the blocking case is not asserted here:
  // the async fast-fail also crosses to the loop thread and back. The
  // fast-fail count proves no connect was attempted.
  FaultPlan plan;
  plan.refuse_connects = 2;
  resilience::CircuitBreakerOptions breaker_options;
  breaker_options.window_size = 4;
  breaker_options.min_samples = 2;
  breaker_options.failure_ratio = 0.5;
  breaker_options.open_cooldown = std::chrono::milliseconds(100);
  LadderRun runs[2];
  for (Driver driver : kDrivers) {
    ManualClock breaker_clock;
    resilience::CircuitBreakerSet breakers(breaker_options, breaker_clock);
    ClientOptions options;
    options.breakers = &breakers;
    runs[static_cast<int>(driver)] =
        run_on(driver, plan, options, [&](SpiClient& client) {
          std::vector<CallOutcome> outcomes;
          auto once = [&] {
            outcomes.push_back(
                client.call_packed(echo_x(), PackMode::kSingle).front());
          };
          once();  // refused
          once();  // refused: the breaker opens
          EXPECT_EQ(breakers.for_endpoint(client.server()).state(),
                    resilience::BreakerState::kOpen);
          once();  // fails fast
          breaker_clock.advance(std::chrono::milliseconds(150));
          once();  // the half-open probe closes it
          EXPECT_EQ(breakers.for_endpoint(client.server()).state(),
                    resilience::BreakerState::kClosed);
          once();
          return outcomes;
        });
  }
  expect_same(runs[0], runs[1]);
  const LadderRun& run = runs[0];
  ASSERT_EQ(run.outcomes.size(), 5u);
  EXPECT_EQ(run.outcomes[0].error().code(), ErrorCode::kConnectionFailed);
  EXPECT_EQ(run.outcomes[1].error().code(), ErrorCode::kConnectionFailed);
  EXPECT_EQ(run.outcomes[2].error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(run.stats.breaker_fast_fails, 1u);
  EXPECT_TRUE(run.outcomes[3].ok());
  EXPECT_TRUE(run.outcomes[4].ok());
}

TEST_F(ResilienceE2eDriversTest, ClientFailsFastWhenDeadlineAlreadySpent) {
  const ClientOptions options;
  LadderRun run =
      on_both_drivers(FaultPlan{}, options, [](SpiClient& client) {
        const resilience::Deadline spent =
            resilience::Deadline::after(std::chrono::milliseconds(-5));
        resilience::DeadlineScope scope(spent);
        Stopwatch stopwatch;
        auto outcomes = client.call_packed(echo_x(), PackMode::kSingle);
        EXPECT_LT(stopwatch.elapsed_ms(), 50.0);
        return outcomes;
      });
  ASSERT_FALSE(run.outcomes[0].ok());
  EXPECT_EQ(run.outcomes[0].error().code(), ErrorCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace spi::core
