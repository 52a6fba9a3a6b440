// SpiClient's async driver (DESIGN.md §16): runs an exchange's ladder
// (ladder.hpp) on the reactor loop thread, with wheel timers for its
// backoff pauses, and adds the one thing the blocking driver cannot do:
// hedged requests. No caller thread blocks.
//
// One AsyncExchange = one execute_packed_async() call. Its life is a
// sequence of ROUNDS, each opened by the ladder. A round may grow a second
// identical leg — the hedge — once the primary outlives the learned
// latency quantile. The first leg to answer settles the round; the loser
// is cancelled and its connection drains back into the pool. Two guards
// protect every callback: a round sequence number drops anything from a
// superseded round, and a round-settled flag drops the cancelled loser's
// kCancelled completion in the window after the winner decided the round
// but before the next round (if any) bumps the sequence.
#include <memory>
#include <utility>

#include "core/ladder.hpp"

namespace spi::core {

template <class Call>
struct SpiClient::AsyncExchange
    : std::enable_shared_from_this<SpiClient::AsyncExchange<Call>> {
  using Step = typename Ladder<Call>::Step;

  /// Runs on the CALLER thread: the ladder captures the ambient deadline
  /// and trace here, as the blocking driver does on entry.
  AsyncExchange(SpiClient& client, std::vector<Call> batch, PackMode mode,
                Completion<Call> on_done)
      : client(client),
        http(*client.options_.async_client),
        calls(std::move(batch)),
        ladder(client, calls, mode),
        done(std::move(on_done)) {}

  SpiClient& client;
  http::AsyncHttpClient& http;
  const std::vector<Call> calls;  // the batch the ladder's rounds view
  Ladder<Call> ladder;
  Completion<Call> done;

  // --- current round ------------------------------------------------------
  std::uint64_t round_seq = 0;  // bumped per round; guards callbacks
  // Only a round that may hedge keeps a copy of its request, for the
  // hedge leg to resend verbatim; the primary leg gets the original. The
  // copy shares the spliced payload strings and copies only the framing.
  http::Request hedge_request;
  TimePoint round_start{};
  http::AsyncHttpClient::RequestId primary_id =
      http::AsyncHttpClient::kInvalidRequest;
  http::AsyncHttpClient::RequestId hedge_id =
      http::AsyncHttpClient::kInvalidRequest;
  bool primary_settled = false;
  bool hedge_settled = false;
  /// The round's result is decided (winner taken or both legs failed).
  /// Set BEFORE the ladder settles it: settling may schedule another round
  /// with a backoff pause, and until begin_round bumps round_seq the
  /// cancelled loser's kCancelled completion would otherwise pass the seq
  /// guard and feed the breaker / retry ladder a phantom failure.
  bool round_settled = false;
  std::optional<Error> primary_error;
  TimerWheel::TimerId hedge_timer = TimerWheel::kInvalidTimer;

  bool completed = false;

  ~AsyncExchange() {
    // Safety net: if the reactor was torn down with this exchange still
    // posted on its queues/wheel, the callback must still fire exactly
    // once and the client's in-flight count must still reach zero. The
    // reactor may be mid-destruction here, so finish without touching it
    // (no timer cancels — the wheel is gone along with our timers).
    if (!completed) {
      finish(Error(ErrorCode::kCancelled,
                   "async runtime shut down with exchange in flight"));
    }
  }

  // Everything below runs on the reactor loop thread.

  void begin_round() {
    if (completed) return;
    ++round_seq;
    primary_id = hedge_id = http::AsyncHttpClient::kInvalidRequest;
    primary_settled = hedge_settled = false;
    round_settled = false;
    primary_error.reset();
    round_start = RealClock::instance().now();
    if (Step step = ladder.open_round(); step != Step::kSend) {
      follow(step);
      return;
    }

    // Hedge only rounds the ladder allows to (every call idempotent, the
    // breaker closed), once the hedge policy has learned a delay.
    std::optional<Duration> hedge_delay =
        ladder.may_hedge() ? client.hedge_policy_.delay() : std::nullopt;
    hedge_request = hedge_delay ? ladder.request() : http::Request{};
    auto self = this->shared_from_this();
    std::uint64_t seq = round_seq;
    // One wheel timer bounds the whole attempt.
    primary_id = http.send(
        client.server_, std::move(ladder.request()), ladder.timeout(),
        [self, seq](Result<http::Response> r) {
          self->on_leg(seq, /*is_hedge=*/false, std::move(r));
        });

    if (hedge_delay) {
      hedge_timer = http.reactor().schedule(
          *hedge_delay, [self, seq] { self->fire_hedge(seq); });
    }
  }

  void fire_hedge(std::uint64_t seq) {
    hedge_timer = TimerWheel::kInvalidTimer;
    if (completed || seq != round_seq || round_settled || primary_settled) {
      return;
    }
    // Speculative load debits the same token bucket as retries, so
    // hedging cannot multiply traffic during an outage.
    if (!client.retry_policy_.try_spend_hedge()) return;

    client.hedges_sent_.fetch_add(1, std::memory_order_relaxed);
    auto self = this->shared_from_this();
    hedge_id = http.send(
        client.server_, std::move(hedge_request), ladder.timeout(),
        [self, seq](Result<http::Response> r) {
          self->on_leg(seq, /*is_hedge=*/true, std::move(r));
        });
  }

  void cancel_hedge_timer() {
    if (hedge_timer != TimerWheel::kInvalidTimer) {
      http.reactor().cancel_timer(hedge_timer);
      hedge_timer = TimerWheel::kInvalidTimer;
    }
  }

  void on_leg(std::uint64_t seq, bool is_hedge, Result<http::Response> r) {
    // Superseded round, or this round's outcome is already decided (the
    // cancelled loser reporting kCancelled while the winner's result is
    // still being processed — e.g. waiting out a repack backoff timer).
    if (completed || seq != round_seq || round_settled) return;
    (is_hedge ? hedge_settled : primary_settled) = true;

    if (r.ok()) {
      // First success wins the round — settle it NOW, so the cancelled
      // loser's kCancelled completion is dropped by the round_settled
      // guard even before begin_round bumps the seq (or the exchange
      // completes without another round).
      round_settled = true;
      cancel_hedge_timer();
      if (is_hedge) {
        client.hedges_won_.fetch_add(1, std::memory_order_relaxed);
        if (!primary_settled) http.cancel(primary_id);
      } else {
        if (hedge_id != http::AsyncHttpClient::kInvalidRequest &&
            !hedge_settled) {
          http.cancel(hedge_id);
          client.hedges_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
        // Only primary completions feed the hedge trigger: a hedge win's
        // latency is measured from the hedge send, not the round start.
        client.hedge_policy_.record(RealClock::instance().now() -
                                    round_start);
      }
      follow(ladder.settle(std::move(r)));
      return;
    }

    // A failed leg: if its twin is still in flight, hold the error and
    // let the race finish — hedging means ONE success suffices.
    if (!is_hedge) primary_error = r.error();
    bool hedge_outstanding =
        hedge_id != http::AsyncHttpClient::kInvalidRequest && !hedge_settled;
    bool primary_outstanding = !primary_settled;
    if (hedge_outstanding || primary_outstanding) return;

    round_settled = true;  // both legs failed: this round is decided
    cancel_hedge_timer();
    // Prefer the primary's error: it is the attempt the retry ladder
    // reasons about; the hedge was a speculative extra.
    follow(ladder.settle(primary_error ? *primary_error : r.error()));
  }

  /// The ladder's next step: a wheel timer in place of the blocking
  /// driver's sleep, or completion.
  void follow(Step step) {
    if (step == Step::kDone) {
      complete();
      return;
    }
    auto self = this->shared_from_this();
    if (ladder.pause() <= Duration::zero()) {
      http.reactor().post([self] { self->begin_round(); });
      return;
    }
    http.reactor().schedule(ladder.pause(), [self] { self->begin_round(); });
  }

  void complete() {
    if (completed) return;
    cancel_hedge_timer();
    finish(ladder.take_result());
  }

  void finish(Result<Outcomes<Call>> result) {
    completed = true;
    done(std::move(result), ladder.max_retry_after());
    // Decrement AFTER the callback: ~SpiClient waits for zero so no
    // callback ever touches a dead client. Notify under the lock: the
    // destructor may return the moment it sees zero, and an unlocked
    // notify would touch a dead condition variable (see WaitGroup::done).
    std::lock_guard lock(client.async_mutex_);
    client.async_inflight_.fetch_sub(1, std::memory_order_release);
    client.async_cv_.notify_all();
  }
};

void SpiClient::execute_packed_async(std::vector<ServiceCall> calls,
                                     PackMode mode, PackedCallback done) {
  execute_packed_async(std::move(calls), mode,
                       [done = std::move(done)](PackedResult result, Duration) {
                         done(std::move(result));
                       });
}

void SpiClient::execute_packed_async(std::vector<ServiceCall> calls,
                                     PackMode mode, PackedCallbackEx done) {
  start_async(std::move(calls), mode, Completion<ServiceCall>(std::move(done)));
}

void SpiClient::execute_packed_async(std::span<const wire::CallView> calls,
                                     PackMode mode, RelayedCallback done) {
  start_async(std::vector<wire::CallView>(calls.begin(), calls.end()), mode,
              Completion<wire::CallView>(std::move(done)));
}

template <class Call>
void SpiClient::start_async(std::vector<Call> calls, PackMode mode,
                            Completion<Call> done) {
  if (calls.empty()) {
    done(Error(ErrorCode::kInvalidArgument, "empty call batch"),
         Duration::zero());
    return;
  }
  if (!options_.async_client) {
    done(Error(ErrorCode::kInvalidArgument,
               "no async runtime configured (ClientOptions::async_client)"),
         Duration::zero());
    return;
  }

  auto ex = std::make_shared<AsyncExchange<Call>>(*this, std::move(calls),
                                                  mode, std::move(done));
  async_inflight_.fetch_add(1, std::memory_order_acq_rel);
  options_.async_client->reactor().post([ex] { ex->begin_round(); });
}

std::future<SpiClient::PackedResult> SpiClient::execute_packed_future(
    std::vector<ServiceCall> calls, PackMode mode) {
  auto promise = std::make_shared<std::promise<PackedResult>>();
  std::future<PackedResult> future = promise->get_future();
  execute_packed_async(std::move(calls), mode,
                       [promise](PackedResult result) {
                         promise->set_value(std::move(result));
                       });
  return future;
}

}  // namespace spi::core
