// SpiClient's async packed exchange (DESIGN.md §16): the full resilience
// pipeline of the blocking exchange() — deadline budget, breaker gating,
// message-level retries with jittered backoff, partial-batch re-pack —
// re-expressed as a state machine driven entirely by the reactor loop
// thread, plus the one capability the blocking path cannot have: hedged
// requests. No caller thread blocks; backoff sleeps are wheel timers;
// the hedge trigger is a wheel timer racing the primary leg.
//
// One AsyncExchange = one execute_packed_async() call. Its life is a
// sequence of ROUNDS. Each round ships one HTTP attempt (the subset of
// calls still outstanding) and may grow a second identical leg — the
// hedge — once the primary outlives the learned latency quantile. The
// first leg to answer settles the round; the loser is cancelled and its
// connection drains back into the pool. Two guards protect every
// callback: a round sequence number drops anything from a superseded
// round, and a round-settled flag drops the cancelled loser's kCancelled
// completion in the window after the winner decided the round but before
// the next round (if any) bumps the sequence.
#include <memory>
#include <utility>

#include "core/client.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {

template <class Call>
struct SpiClient::AsyncExchange
    : std::enable_shared_from_this<SpiClient::AsyncExchange<Call>> {
  using ExchangeResult = Result<Outcomes<Call>>;

  enum class Phase {
    kMessage,  // flying the whole batch; failures replay everything
    kRepack,   // server answered once; replaying only failed sub-calls
  };

  SpiClient* client;
  http::AsyncHttpClient* http;
  std::vector<Call> calls;  // the original batch, request order
  PackMode mode;
  Completion<Call> done;

  // Captured on the CALLER thread at submit time, exactly like the
  // blocking path captures them on entry to exchange().
  resilience::Deadline deadline;
  telemetry::TraceContext ambient_trace;  // invalid => start a fresh trace

  Phase phase = Phase::kMessage;
  int attempts = 1;  // attempts made so far (1-based, like exchange())
  Outcomes<Call> outcomes;                    // filled by the first success
  std::optional<Error> replay_error;          // message-level replay failure
  Duration max_retry_after = Duration::zero();

  // --- current round ------------------------------------------------------
  std::uint64_t round_seq = 0;        // bumped per round; guards callbacks
  // The calls this round ships: the caller's batch itself in the first
  // round, the re-pack subset afterwards. Never a copy of `calls`.
  std::span<const Call> round_calls;
  std::vector<Call> repack_calls;     // kRepack: failed sub-calls
  std::vector<size_t> round_slots;    // kRepack: outcome slot per round call
  PackMode round_mode = PackMode::kPacked;
  bool round_idempotent = false;
  // Only a round that may hedge keeps a copy of its request, for the
  // hedge leg to resend verbatim; the primary leg gets the original. The
  // copy shares the spliced payload strings and copies only the framing.
  http::Request hedge_request;
  Duration round_timeout = kNoTimeout;
  Duration round_retry_after = Duration::zero();
  TimePoint round_start{};
  resilience::CircuitBreaker* breaker = nullptr;

  http::AsyncHttpClient::RequestId primary_id =
      http::AsyncHttpClient::kInvalidRequest;
  http::AsyncHttpClient::RequestId hedge_id =
      http::AsyncHttpClient::kInvalidRequest;
  bool primary_settled = false;
  bool hedge_settled = false;
  /// The round's result is decided (winner taken or both legs failed).
  /// Set BEFORE the result is processed: processing may schedule another
  /// round with a backoff pause, and until begin_round bumps round_seq
  /// the cancelled loser's kCancelled completion would otherwise pass
  /// the seq guard and feed the breaker / retry ladder a phantom failure.
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

  void note_retry_after(Duration hint) {
    if (hint > max_retry_after) max_retry_after = hint;
  }

  // Everything below runs on the reactor loop thread.

  void start() {
    round_calls = calls;
    round_slots.clear();
    round_mode = mode;
    begin_round();
  }

  void begin_round() {
    if (completed) return;
    ++round_seq;
    primary_id = hedge_id = http::AsyncHttpClient::kInvalidRequest;
    primary_settled = hedge_settled = false;
    round_settled = false;
    primary_error.reset();
    round_retry_after = Duration::zero();
    round_idempotent = client->all_idempotent(round_calls);

    TimePoint now = RealClock::instance().now();
    if (deadline.expired(now)) {
      round_failed(Error(ErrorCode::kDeadlineExceeded,
                         "client deadline expired before send"));
      return;
    }

    breaker = client->options_.breakers
                  ? &client->options_.breakers->for_endpoint(client->server_)
                  : nullptr;
    if (breaker) {
      if (Status allowed = breaker->allow(); !allowed.ok()) {
        client->breaker_fast_fails_.fetch_add(1, std::memory_order_relaxed);
        breaker = nullptr;  // this round owes the breaker no outcome report
        round_failed(allowed.error());
        return;
      }
    }

    // Assemble under the captured deadline/trace, exactly as the blocking
    // attempt does on its own thread: the Assembler serializes
    // <spi:Deadline> from the ambient scope and <spi:Trace> from the
    // ambient trace, and the pack-cost charge is replayed at wire size.
    http::Request request;
    request.target = client->options_.target;
    request.headers.set("SOAPAction", "\"\"");
    request.headers.set("Content-Type", "text/xml");
    {
      resilience::DeadlineScope deadline_scope(deadline);
      telemetry::TraceContext trace;
      if (client->options_.trace_propagation) {
        trace = ambient_trace.valid() ? ambient_trace.child()
                                      : telemetry::TraceContext::generate();
      }
      telemetry::TraceScope trace_scope(trace);

      PackCostDeferral deferral;
      auto encoded = client->encode_request(
          Gathered(client->assembler_.assemble_request(round_calls,
                                                       round_mode)),
          request.headers);
      if (!encoded.ok()) {
        round_failed(encoded.wrap_error("spi exchange"));
        return;
      }
      request.set_body(std::move(encoded).value());
      deferral.replay(request.body_size());
    }

    // One wheel timer bounds the whole attempt: the blocking path's
    // receive timeout clamped by the remaining deadline budget.
    round_timeout = min_timeout(client->options_.receive_timeout,
                                deadline.remaining_or_unbounded(now));
    round_start = now;

    std::optional<Duration> hedge_delay = round_hedge_delay();
    hedge_request = hedge_delay ? request : http::Request{};
    auto self = this->shared_from_this();
    std::uint64_t seq = round_seq;
    primary_id = http->send(
        client->server_, std::move(request), round_timeout,
        [self, seq](Result<http::Response> r) {
          self->on_leg(seq, /*is_hedge=*/false, std::move(r));
        });

    if (hedge_delay) {
      hedge_timer = http->reactor().schedule(
          *hedge_delay, [self, seq] { self->fire_hedge(seq); });
    }
  }

  // After how long this round should hedge, or nullopt when it must not.
  std::optional<Duration> round_hedge_delay() const {
    // Hedge only rounds whose EVERY call is idempotent (the server may
    // execute both legs), and only while the breaker is fully closed —
    // half-open probe slots are for real traffic, not speculation.
    if (!round_idempotent) return std::nullopt;
    if (breaker && breaker->state() != resilience::BreakerState::kClosed) {
      return std::nullopt;
    }
    return client->hedge_policy_.delay();
  }

  void fire_hedge(std::uint64_t seq) {
    hedge_timer = TimerWheel::kInvalidTimer;
    if (completed || seq != round_seq || round_settled || primary_settled) {
      return;
    }
    // Speculative load debits the same token bucket as retries, so
    // hedging cannot multiply traffic during an outage.
    if (!client->retry_policy_.try_spend_hedge()) return;

    client->hedges_sent_.fetch_add(1, std::memory_order_relaxed);
    TimePoint now = RealClock::instance().now();
    Duration timeout = min_timeout(client->options_.receive_timeout,
                                   deadline.remaining_or_unbounded(now));
    auto self = this->shared_from_this();
    hedge_id = http->send(
        client->server_, std::move(hedge_request), timeout,
        [self, seq](Result<http::Response> r) {
          self->on_leg(seq, /*is_hedge=*/true, std::move(r));
        });
  }

  void cancel_hedge_timer() {
    if (hedge_timer != TimerWheel::kInvalidTimer) {
      http->reactor().cancel_timer(hedge_timer);
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
        client->hedges_won_.fetch_add(1, std::memory_order_relaxed);
        if (!primary_settled) http->cancel(primary_id);
      } else {
        if (hedge_id != http::AsyncHttpClient::kInvalidRequest &&
            !hedge_settled) {
          http->cancel(hedge_id);
          client->hedges_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
        // Only primary completions feed the hedge trigger: a hedge win's
        // latency is measured from the hedge send, not the round start.
        client->hedge_policy_.record(RealClock::instance().now() -
                                     round_start);
      }
      if (breaker) breaker->on_success();
      settle_response(std::move(r).value());
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
    if (breaker) breaker->on_failure();
    // Prefer the primary's error: it is the attempt the retry ladder
    // reasons about; the hedge was a speculative extra.
    round_failed(primary_error ? *primary_error : r.error());
  }

  void settle_response(http::Response response) {
    // A shedding server attaches Retry-After (decimal seconds) to its
    // 503; it floors the backoff before any replay of this exchange.
    if (auto hint = response.headers.get("Retry-After")) {
      if (auto floor = resilience::parse_retry_after(*hint)) {
        round_retry_after = *floor;
        note_retry_after(*floor);
      }
    }

    auto routed = client->read_reply(std::move(response), round_calls);
    if (!routed.ok()) {
      round_failed(routed.error());
      return;
    }

    if (phase == Phase::kMessage) {
      outcomes = std::move(routed).value();
      phase = Phase::kRepack;
    } else {
      replay_error.reset();
      merge_replay(outcomes, routed.value(), round_slots);
    }
    evaluate_repack();
  }

  // The server answered; decide whether failed retryable sub-calls earn
  // another (partial) round, mirroring exchange()'s re-pack loop.
  void evaluate_repack() {
    const auto& settled = outcomes_of(outcomes);
    std::vector<size_t> failed;
    for (size_t i = 0; i < settled.size(); ++i) {
      if (!settled[i].ok() &&
          resilience::classify(settled[i].error()) !=
              resilience::FaultClass::kTerminal) {
        failed.push_back(i);
      }
    }
    if (failed.empty()) {
      complete(std::move(outcomes));
      return;
    }

    std::vector<Call> subset;
    subset.reserve(failed.size());
    for (size_t i : failed) subset.push_back(calls[i]);

    const Error& gate =
        replay_error ? *replay_error : settled[failed.front()].error();
    if (!client->retry_policy_.should_retry(
            gate, attempts, client->all_idempotent<Call>(subset))) {
      complete(std::move(outcomes));  // keep the per-call faults
      return;
    }
    Duration pause = client->retry_policy_.backoff(attempts, round_retry_after);
    if (deadline.valid() &&
        deadline.remaining(RealClock::instance().now()) <= pause) {
      complete(std::move(outcomes));
      return;
    }
    ++attempts;
    client->partial_repacks_.fetch_add(1, std::memory_order_relaxed);

    repack_calls = std::move(subset);
    round_calls = repack_calls;
    round_slots = std::move(failed);
    round_mode = mode == PackMode::kSingle ? PackMode::kSingle
                                           : PackMode::kPacked;
    schedule_round(pause);
  }

  // One round failed outright (no response routed). In the message phase
  // this replays the whole batch through the retry ladder; in the re-pack
  // phase the error gates the NEXT re-pack decision, the original
  // per-call faults stay.
  void round_failed(Error error) {
    if (phase == Phase::kRepack) {
      replay_error = std::move(error);
      evaluate_repack();
      return;
    }
    if (client->retry_policy_.should_retry(
            error, attempts, client->all_idempotent<Call>(calls))) {
      Duration pause =
          client->retry_policy_.backoff(attempts, round_retry_after);
      if (!deadline.valid() ||
          deadline.remaining(RealClock::instance().now()) > pause) {
        ++attempts;
        schedule_round(pause);
        return;
      }
    }
    complete(std::move(error));
  }

  // The async form of sleep_backoff(): a wheel timer instead of a
  // blocked thread.
  void schedule_round(Duration pause) {
    auto self = this->shared_from_this();
    if (pause <= Duration::zero()) {
      http->reactor().post([self] { self->begin_round(); });
      return;
    }
    http->reactor().schedule(pause, [self] { self->begin_round(); });
  }

  void complete(ExchangeResult result) {
    if (completed) return;
    cancel_hedge_timer();
    finish(std::move(result));
  }

  void finish(ExchangeResult result) {
    completed = true;
    done(std::move(result), max_retry_after);
    // Decrement AFTER the callback: ~SpiClient waits for zero so no
    // callback ever touches a dead client. Notify under the lock: the
    // destructor may return the moment it sees zero, and an unlocked
    // notify would touch a dead condition variable (see WaitGroup::done).
    std::lock_guard lock(client->async_mutex_);
    client->async_inflight_.fetch_sub(1, std::memory_order_release);
    client->async_cv_.notify_all();
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

  auto ex = std::make_shared<AsyncExchange<Call>>();
  ex->client = this;
  ex->http = options_.async_client;
  ex->calls = std::move(calls);
  ex->mode = mode;
  ex->done = std::move(done);

  // Ambient deadline/trace belong to the CALLING thread; capture them
  // here, before control moves to the loop. The blocking path does the
  // same on entry to exchange().
  if (const resilience::Deadline* ambient = resilience::current_deadline();
      ambient && ambient->valid()) {
    ex->deadline = *ambient;
  } else if (!is_unbounded(options_.call_timeout)) {
    ex->deadline = resilience::Deadline::after(options_.call_timeout);
  }
  if (const telemetry::TraceContext* trace = telemetry::current_trace();
      trace && trace->valid()) {
    ex->ambient_trace = *trace;
  }

  retry_policy_.on_call();
  async_inflight_.fetch_add(1, std::memory_order_acq_rel);
  options_.async_client->reactor().post([ex] { ex->start(); });
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
