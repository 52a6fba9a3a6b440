// Async SPI client (DESIGN.md §16): the packed exchange as a reactor-side
// state machine — future/callback completion, the blocking API as a thin
// wrapper, AutoBatcher flushing without a parked pool thread, and hedged
// requests (fire at the learned quantile, first success wins, cancel the
// loser, debit the retry budget, never hedge non-idempotent calls).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "benchsupport/workload.hpp"
#include "core/auto_batcher.hpp"
#include "core/client.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "net/tcp_transport.hpp"
#include "services/echo.hpp"
#include "support/faulty_transport.hpp"

namespace spi {
namespace {

using namespace std::chrono_literals;
using core::CallOutcome;
using core::ServiceCall;
using soap::Value;

/// `prefix` followed by `n`, built by append ("s" + std::to_string(n) reads
/// as an overlapping copy to gcc 12's -Wrestrict).
std::string tagged(std::string_view prefix, int n) {
  std::string text(prefix);
  text += std::to_string(n);
  return text;
}

class AsyncSpiClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    services::register_echo_service(registry_);
    // TailService.Get is idempotent and stalls while `stall_next_` holds
    // tokens — the knob that manufactures a tail-latency event on demand.
    // TailService.Put is byte-identical behavior but NON-idempotent.
    auto stalling = [this](const soap::Struct&) -> Result<Value> {
      if (stall_next_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
        std::this_thread::sleep_for(300ms);
        return Value("slow");
      }
      return Value("fast");
    };
    // TailService.Race scripts the hedge/repack race: invocation 0 (the
    // primary leg) stalls; invocation 1 (the hedge leg) answers fast with
    // a retryable not-executed fault, so the winning round schedules a
    // partial re-pack; invocation 2 (the replay) succeeds.
    auto race = [this](const soap::Struct&) -> Result<Value> {
      int n = race_seq_.fetch_add(1, std::memory_order_acq_rel);
      if (n == 0) {
        std::this_thread::sleep_for(300ms);
        return Value("slow");
      }
      if (n == 1) {
        return Error(ErrorCode::kCapacityExceeded, "induced rejection");
      }
      return Value("ok");
    };
    core::ServiceBinder(registry_, "TailService")
        .bind_idempotent("Get", stalling)
        .bind("Put", stalling)
        .bind_idempotent("Race", race);
    server_ = std::make_unique<core::SpiServer>(
        transport_, net::Endpoint{"127.0.0.1", 0}, registry_);
    ASSERT_TRUE(server_->start().ok());
    reactor_.start();
    async_http_ = std::make_unique<http::AsyncHttpClient>(reactor_,
                                                          transport_);
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<core::SpiClient> make_client(core::ClientOptions options) {
    options.async_client = async_http_.get();
    options.retry.idempotent = registry_.idempotency_predicate();
    return std::make_unique<core::SpiClient>(transport_, server_->endpoint(),
                                             std::move(options));
  }

  static core::ClientOptions hedged_options() {
    core::ClientOptions options;
    options.hedge.enabled = true;
    options.hedge.quantile = 0.5;
    options.hedge.min_delay = 2ms;
    options.hedge.warmup = 5;
    return options;
  }

  /// The in-flight gauge decrements AFTER the completion callback (the
  /// destructor's quiescence wait must cover callbacks), so a future can
  /// resolve a beat before the gauge drops: poll instead of asserting.
  static void wait_inflight_zero(core::SpiClient& client) {
    for (int i = 0; i < 200 && client.stats().async_inflight != 0; ++i) {
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_EQ(client.stats().async_inflight, 0u);
  }

  /// Completes exactly `warmup` fast TailService exchanges so the hedge
  /// policy's latency histogram passes warmup and learns a ~sub-millisecond
  /// p50. Each exchange records its sample before it completes, so every
  /// warm-up exchange starts with fewer than `warmup` samples and cannot
  /// arm a hedge, however slow the build: the hedge counts a test asserts
  /// belong to its own exchanges alone.
  static void warm_hedge_policy(core::SpiClient& client) {
    for (std::uint64_t i = 0; i < hedged_options().hedge.warmup; ++i) {
      std::vector<ServiceCall> calls;
      calls.push_back(core::make_call("TailService", "Get", {}));
      auto result = client.execute_packed_future(std::move(calls)).get();
      ASSERT_TRUE(result.ok()) << result.error().to_string();
    }
  }

  net::TcpTransport transport_;
  core::ServiceRegistry registry_;
  std::atomic<int> stall_next_{0};
  std::atomic<int> race_seq_{0};
  std::unique_ptr<core::SpiServer> server_;
  Reactor reactor_;
  std::unique_ptr<http::AsyncHttpClient> async_http_;
};

TEST_F(AsyncSpiClientTest, FutureRoundTripPackedBatch) {
  auto client = make_client({});
  auto calls = bench::make_echo_calls(8, 32, /*seed=*/11);
  auto result = client
                    ->execute_packed_future(
                        std::vector<ServiceCall>(calls.begin(), calls.end()))
                    .get();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().size(), 8u);
  EXPECT_EQ(bench::count_echo_errors(calls, result.value()), 0u);
  wait_inflight_zero(*client);
}

TEST_F(AsyncSpiClientTest, CallbackDeliversOutcomesOffCallerThread) {
  auto client = make_client({});
  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("EchoService", "Echo",
                                  {{"data", Value("async")}}));

  std::promise<core::SpiClient::PackedResult> delivered;
  std::atomic<bool> on_caller_thread{true};
  auto caller_id = std::this_thread::get_id();
  client->execute_packed_async(
      std::move(calls), core::PackMode::kPacked,
      [&](core::SpiClient::PackedResult result) {
        on_caller_thread.store(std::this_thread::get_id() == caller_id);
        delivered.set_value(std::move(result));
      });

  auto result = delivered.get_future().get();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].value().as_string(), "async");
  // Completion ran on the reactor loop thread, not the submitter.
  EXPECT_FALSE(on_caller_thread.load());
}

TEST_F(AsyncSpiClientTest, BlockingApiIsThinWrapperOverAsyncPath) {
  auto client = make_client({});
  ASSERT_TRUE(client->async_enabled());
  // call_packed routes execute_packed -> execute_packed_future: same
  // outcomes, same per-call fault shape as the thread-per-exchange path.
  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("EchoService", "Echo",
                                  {{"data", Value("ok")}}));
  calls.push_back(core::make_call("EchoService", "NoSuchOperation", {}));
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok());
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].error().code(), ErrorCode::kFault);
}

TEST_F(AsyncSpiClientTest, ManyOutstandingExchangesOneLoopThread) {
  auto client = make_client({});
  constexpr int kBatches = 32;
  std::vector<std::future<core::SpiClient::PackedResult>> futures;
  futures.reserve(kBatches);
  for (int i = 0; i < kBatches; ++i) {
    auto calls = bench::make_echo_calls(4, 16, /*seed=*/100 + i);
    futures.push_back(client->execute_packed_future(
        std::vector<ServiceCall>(calls.begin(), calls.end())));
  }
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().size(), 4u);
  }
  wait_inflight_zero(*client);
}

TEST_F(AsyncSpiClientTest, AutoBatcherFlushesThroughAsyncPathWithoutPoolThread) {
  auto client = make_client({});
  core::AutoBatcher::Options options;
  options.max_batch = 8;
  options.max_delay = 50ms;
  core::AutoBatcher batcher(*client, options);

  std::vector<std::future<CallOutcome>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(batcher.call_async(
        "EchoService", "Echo", {{"data", Value(tagged("b", i))}}));
  }
  batcher.flush();
  for (int i = 0; i < 24; ++i) {
    auto outcome = futures[i].get();
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(outcome.value().as_string(), tagged("b", i));
  }
  auto stats = batcher.stats();
  EXPECT_EQ(stats.calls, 24u);
  EXPECT_GE(stats.batches, 1u);
  batcher.shutdown();
  wait_inflight_zero(*client);
}

// Regression: the hedge loser's kCancelled completion lands in the window
// AFTER the winner's result scheduled a re-pack round but BEFORE that
// round begins (round_seq is only bumped when the new round starts, so
// the seq guard alone does not stop it). It must be dropped like any
// stale callback — not fed to the retry ladder, where its terminal
// classification would abort the scheduled replay, orphan the backoff
// timer, and hand the caller the unretried per-call fault.
TEST_F(AsyncSpiClientTest, CancelledHedgeLoserDoesNotAbortScheduledRepack) {
  auto options = hedged_options();
  options.retry.max_attempts = 3;
  auto client = make_client(options);
  warm_hedge_policy(*client);

  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("TailService", "Race", {}));
  auto result = client->execute_packed_future(std::move(calls)).get();

  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().size(), 1u);
  ASSERT_TRUE(result.value()[0].ok()) << result.value()[0].error().to_string();
  EXPECT_EQ(result.value()[0].value().as_string(), "ok");

  auto stats = client->stats();
  EXPECT_GE(stats.hedges_sent, 1u);
  EXPECT_GE(stats.hedges_won, 1u);
  // The replay the phantom kCancelled would have aborted actually ran.
  EXPECT_EQ(stats.partial_repacks, 1u);
  wait_inflight_zero(*client);
}

TEST_F(AsyncSpiClientTest, HedgeFiresOnStallAndWins) {
  auto client = make_client(hedged_options());
  warm_hedge_policy(*client);

  // Manufacture the tail: the NEXT handler invocation sleeps 300ms. The
  // hedge fires at the learned p50 (clamped to 2ms), lands on a fresh
  // connection, finds the stall token spent, and answers fast.
  stall_next_.store(1);
  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("TailService", "Get", {}));
  auto start = std::chrono::steady_clock::now();
  auto result = client->execute_packed_future(std::move(calls)).get();
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value()[0].value().as_string(), "fast");
  // The exchange beat the 300ms stall: the hedge won.
  EXPECT_LT(elapsed, 250ms);

  auto stats = client->stats();
  EXPECT_EQ(stats.hedges_sent, 1u);
  EXPECT_EQ(stats.hedges_won, 1u);
  EXPECT_EQ(stats.hedges_cancelled, 0u);
}

TEST_F(AsyncSpiClientTest, PrimaryWinCancelsHedgeLeg) {
  auto client = make_client(hedged_options());
  warm_hedge_policy(*client);

  // No stall: the primary answers first; the armed-and-fired hedge (or
  // armed-and-not-fired timer) must never double-complete the exchange.
  for (int i = 0; i < 20; ++i) {
    std::vector<ServiceCall> calls;
    calls.push_back(core::make_call("TailService", "Get", {}));
    auto result = client->execute_packed_future(std::move(calls)).get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
  auto stats = client->stats();
  // Every fired hedge was settled exactly once: won by the hedge (it beat
  // a median-speed primary) or cancelled by the primary's win — never lost.
  EXPECT_EQ(stats.hedges_won + stats.hedges_cancelled, stats.hedges_sent);
  wait_inflight_zero(*client);
}

TEST_F(AsyncSpiClientTest, NonIdempotentCallsNeverHedge) {
  auto client = make_client(hedged_options());
  warm_hedge_policy(*client);

  // TailService.Put is the same handler WITHOUT the idempotent trait: the
  // stall rides out the full 300ms because firing a second attempt could
  // execute the write twice.
  stall_next_.store(1);
  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("TailService", "Put", {}));
  auto start = std::chrono::steady_clock::now();
  auto result = client->execute_packed_future(std::move(calls)).get();
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value()[0].value().as_string(), "slow");
  EXPECT_GE(elapsed, 250ms);
  EXPECT_EQ(client->stats().hedges_sent, 0u);
}

TEST_F(AsyncSpiClientTest, MixedBatchWithNonIdempotentCallDisablesHedging) {
  auto client = make_client(hedged_options());
  warm_hedge_policy(*client);

  // One non-idempotent call poisons the whole packed message: the batch
  // crosses as ONE HTTP exchange, so hedging it re-executes everything.
  stall_next_.store(1);
  std::vector<ServiceCall> calls;
  calls.push_back(core::make_call("TailService", "Get", {}));
  calls.push_back(core::make_call("TailService", "Put", {}));
  auto result = client->execute_packed_future(std::move(calls)).get();
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(client->stats().hedges_sent, 0u);
}

TEST_F(AsyncSpiClientTest, HedgesDebitRetryBudget) {
  auto options = hedged_options();
  // One token, no earn-back: exactly one hedge may EVER fire.
  options.retry.budget = 1.0;
  options.retry.deposit_per_call = 0.0;
  auto client = make_client(options);
  warm_hedge_policy(*client);

  for (int i = 0; i < 3; ++i) {
    stall_next_.store(1);
    std::vector<ServiceCall> calls;
    calls.push_back(core::make_call("TailService", "Get", {}));
    auto result = client->execute_packed_future(std::move(calls)).get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
  // Stalls 2 and 3 wanted a hedge too; the empty bucket said no.
  EXPECT_EQ(client->stats().hedges_sent, 1u);
}

TEST_F(AsyncSpiClientTest, ChaosSeverDuringHedgedExchangesAllRecover) {
  // Connections sever mid-stream at random while hedging and retries are
  // both live: severed legs must feed the retry ladder, hedge/primary
  // twins must not double-complete, and every exchange must still land.
  net::FaultPlan plan;
  plan.sever_rate = 0.2;
  plan.fault_window_bytes = 2048;
  plan.seed = 0x5eed;
  net::FaultyTransport chaos(transport_, plan);
  ASSERT_TRUE(chaos.supports_nonblocking_connect());

  Reactor chaos_reactor;
  chaos_reactor.start();
  http::AsyncHttpClient chaos_http(chaos_reactor, chaos);

  core::ClientOptions options = hedged_options();
  options.hedge.warmup = 3;
  options.retry.max_attempts = 6;
  options.retry.budget = 0.0;  // unlimited: the test is about correctness
  options.retry.idempotent = registry_.idempotency_predicate();
  options.async_client = &chaos_http;
  core::SpiClient client(chaos, server_->endpoint(), options);

  int ok = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<ServiceCall> calls;
    calls.push_back(core::make_call("EchoService", "Echo",
                                    {{"data", Value(tagged("c", i))}}));
    calls.push_back(core::make_call("TailService", "Get", {}));
    auto result = client.execute_packed_future(std::move(calls)).get();
    if (result.ok()) {
      ASSERT_EQ(result.value().size(), 2u);
      EXPECT_EQ(result.value()[0].value().as_string(), tagged("c", i));
      ++ok;
    }
  }
  // Severs hit ~20% of connections; six idempotent attempts each make
  // residual failure odds negligible.
  EXPECT_EQ(ok, 60);
  EXPECT_GE(chaos.fault_stats().severs, 1u);
  wait_inflight_zero(client);
}

}  // namespace
}  // namespace spi
