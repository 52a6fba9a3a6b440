// SpiClient's retry/re-pack ladder (DESIGN.md §10), written once and
// without I/O. One Ladder is one exchange: it captures the deadline and
// trace, gates each round on the endpoint breaker, assembles and encodes
// the round's request, reads the reply, honours Retry-After, and decides
// message-level retries and partial re-packs. It only tells its driver
// what to do next:
//
//   kSend  send request() within timeout(), then settle() the answer
//   kWait  wait pause(), then open_round() again
//   kDone  take_result()
//
// Two drivers run it: SpiClient::drive_blocking (an HttpClient and a
// sleep) and SpiClient::AsyncExchange (AsyncHttpClient and wheel timers,
// which adds hedging). Internal to client.cpp and client_async.cpp.
#pragma once

#include <optional>
#include <vector>

#include "core/client.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {

template <class Call>
class SpiClient::Ladder {
 public:
  enum class Step { kSend, kWait, kDone };

  /// Captures the ambient deadline (else call_timeout starts one) and
  /// trace on the calling thread, and deposits the call's retry-budget
  /// share. `calls` must outlive the ladder.
  Ladder(SpiClient& client, std::span<const Call> calls, PackMode mode)
      : client_(client), calls_(calls), mode_(mode), round_calls_(calls),
        round_mode_(mode) {
    if (const resilience::Deadline* ambient = resilience::current_deadline();
        ambient && ambient->valid()) {
      deadline_ = *ambient;
    } else if (!is_unbounded(client.options_.call_timeout)) {
      deadline_ = resilience::Deadline::after(client.options_.call_timeout);
    }
    if (const telemetry::TraceContext* trace = telemetry::current_trace();
        trace && trace->valid()) {
      ambient_trace_ = *trace;
    }
    client.retry_policy_.on_call();
  }

  /// Opens the next round: deadline check, breaker gate, assembly and
  /// encode. A round that fails here has already been decided: kWait or
  /// kDone.
  Step open_round() {
    round_retry_after_ = Duration::zero();
    if (deadline_.expired(RealClock::instance().now())) {
      return fail(Error(ErrorCode::kDeadlineExceeded,
                        "client deadline expired before send"));
    }
    const ClientOptions& options = client_.options_;
    breaker_ = options.breakers
                   ? &options.breakers->for_endpoint(client_.server_)
                   : nullptr;
    if (breaker_) {
      if (Status allowed = breaker_->allow(); !allowed.ok()) {
        client_.breaker_fast_fails_.fetch_add(1, std::memory_order_relaxed);
        breaker_ = nullptr;  // this round owes the breaker no outcome
        return fail(allowed.error());
      }
    }

    request_ = http::Request{};
    request_.target = options.target;
    request_.headers.set("SOAPAction", "\"\"");
    request_.headers.set("Content-Type", "text/xml");
    // The Assembler writes <spi:Deadline> from the ambient deadline and
    // <spi:Trace> from the ambient trace: a child of the caller's, so one
    // origin request stays one trace across hops. The pack-cost charge is
    // replayed at the ENCODED size, the bytes the modeled stack handles.
    resilience::DeadlineScope deadline_scope(deadline_);
    telemetry::TraceContext trace;
    if (options.trace_propagation) {
      trace = ambient_trace_.valid() ? ambient_trace_.child()
                                     : telemetry::TraceContext::generate();
    }
    telemetry::TraceScope trace_scope(trace);
    PackCostDeferral deferral;
    auto encoded = client_.encode_request(
        Gathered(client_.assembler_.assemble_request(round_calls_,
                                                     round_mode_)),
        request_.headers);
    if (!encoded.ok()) return fail(encoded.wrap_error("spi exchange"));
    request_.set_body(std::move(encoded).value());
    deferral.replay(request_.body_size());
    return Step::kSend;
  }

  /// Settles the round with its answer, or the failure that stands for
  /// it (the breaker hears of either). kWait or kDone.
  Step settle(Result<http::Response> reply) {
    if (!reply.ok()) {
      if (breaker_) breaker_->on_failure();
      return fail(reply.wrap_error("spi exchange"));
    }
    if (breaker_) breaker_->on_success();
    // A shedding server attaches Retry-After to its 503: no replay of this
    // exchange goes sooner than asked.
    if (auto hint = reply.value().headers.get("Retry-After")) {
      if (auto floor = resilience::parse_retry_after(*hint)) {
        round_retry_after_ = *floor;
        max_retry_after_ = std::max(max_retry_after_, *floor);
      }
    }
    // Parsed regardless of HTTP status: SOAP faults ride on 500 and
    // packed per-call faults on 200.
    auto routed = client_.read_reply(std::move(reply).value(), round_calls_);
    if (!routed.ok()) return fail(routed.error());
    if (!answered_) {
      outcomes_ = std::move(routed).value();
      answered_ = true;
    } else {
      replay_error_.reset();
      merge_replay(routed.value());
    }
    return next_repack();
  }

  http::Request& request() { return request_; }

  /// Bound on the round's answer: the receive timeout clamped to the
  /// remaining deadline budget.
  Duration timeout() const {
    return min_timeout(client_.options_.receive_timeout,
                       deadline_.remaining_or_unbounded(
                           RealClock::instance().now()));
  }

  /// How long a kWait waits before the next round.
  Duration pause() const { return pause_; }

  /// Whether the open round may hedge: the server may execute both legs,
  /// so every call must be idempotent, and half-open probe slots are for
  /// real traffic, so the breaker must be closed.
  bool may_hedge() const {
    return all_idempotent(round_calls_) &&
           (!breaker_ ||
            breaker_->state() == resilience::BreakerState::kClosed);
  }

  /// The largest Retry-After any round's answer carried (zero when none).
  Duration max_retry_after() const { return max_retry_after_; }

  /// The exchange's result, after kDone.
  Result<Outcomes<Call>> take_result() {
    if (failure_) return std::move(*failure_);
    return std::move(outcomes_);
  }

 private:
  /// The round ended without a routed answer. Before the server has
  /// answered, this replays the whole batch, so the idempotency gate
  /// covers every call; after, the error gates the next re-pack and the
  /// per-call faults stand.
  Step fail(Error error) {
    if (answered_) {
      replay_error_ = std::move(error);
      return next_repack();
    }
    if (client_.retry_policy_.should_retry(error, attempts_,
                                           all_idempotent(calls_)) &&
        backoff()) {
      ++attempts_;
      return Step::kWait;
    }
    failure_ = std::move(error);
    return Step::kDone;
  }

  /// The server answered: failed sub-calls that were not executed (or are
  /// safe to repeat) earn a round carrying only them, merged back into
  /// their slots. Succeeded siblings are never replayed.
  Step next_repack() {
    const auto& settled = outcomes_of(outcomes_);
    std::vector<size_t> failed;
    for (size_t i = 0; i < settled.size(); ++i) {
      if (!settled[i].ok() && resilience::classify(settled[i].error()) !=
                                  resilience::FaultClass::kTerminal) {
        failed.push_back(i);
      }
    }
    if (failed.empty()) return Step::kDone;

    std::vector<Call> subset;
    subset.reserve(failed.size());
    for (size_t i : failed) subset.push_back(calls_[i]);
    const Error& gate =
        replay_error_ ? *replay_error_ : settled[failed.front()].error();
    if (!client_.retry_policy_.should_retry(gate, attempts_,
                                            all_idempotent(subset)) ||
        !backoff()) {
      return Step::kDone;
    }
    ++attempts_;
    client_.partial_repacks_.fetch_add(1, std::memory_order_relaxed);
    repack_calls_ = std::move(subset);
    round_calls_ = repack_calls_;
    round_slots_ = std::move(failed);
    round_mode_ =
        mode_ == PackMode::kSingle ? PackMode::kSingle : PackMode::kPacked;
    return Step::kWait;
  }

  /// A re-pack round's replay, merged into the slots it answers. A relayed
  /// replay also hands over the reply bodies its outcomes lie in.
  void merge_replay(Outcomes<Call>& replay) {
    auto& into = outcomes_of(outcomes_);
    auto& replayed = outcomes_of(replay);
    for (size_t k = 0; k < round_slots_.size(); ++k) {
      into[round_slots_[k]] = std::move(replayed[k]);
    }
    if constexpr (std::is_same_v<Call, wire::CallView>) {
      for (auto& body : replay.replies) {
        outcomes_.replies.push_back(std::move(body));
      }
    }
  }

  static std::vector<CallOutcome>& outcomes_of(
      std::vector<CallOutcome>& outcomes) {
    return outcomes;
  }
  static std::vector<wire::RelayedOutcome>& outcomes_of(RelayedPack& pack) {
    return pack.outcomes;
  }

  /// True when the retry policy declares every call idempotent.
  bool all_idempotent(std::span<const Call> calls) const {
    const auto& idempotent = client_.retry_policy_.options().idempotent;
    if (!idempotent) return false;
    for (const Call& call : calls) {
      if (!idempotent(call.service, call.operation)) return false;
    }
    return true;
  }

  /// The jittered backoff before the next attempt, never below the last
  /// answer's Retry-After; false when the deadline cannot cover it (the
  /// answer could not arrive in time).
  bool backoff() {
    pause_ = client_.retry_policy_.backoff(attempts_, round_retry_after_);
    return !deadline_.valid() ||
           deadline_.remaining(RealClock::instance().now()) > pause_;
  }

  SpiClient& client_;
  const std::span<const Call> calls_;  // the batch, request order
  const PackMode mode_;
  resilience::Deadline deadline_;
  telemetry::TraceContext ambient_trace_;  // invalid: start a fresh trace

  int attempts_ = 1;
  bool answered_ = false;           // a round's reply was routed
  Outcomes<Call> outcomes_;         // the first answer, replays merged in
  std::optional<Error> replay_error_;  // a re-pack round's failure
  std::optional<Error> failure_;       // what ended an unanswered exchange
  Duration max_retry_after_ = Duration::zero();
  Duration pause_ = Duration::zero();

  // The open round. Its calls are the batch itself in the first round and
  // the re-pack subset afterwards, never a copy of the batch.
  std::span<const Call> round_calls_;
  std::vector<Call> repack_calls_;
  std::vector<size_t> round_slots_;  // outcome slot per re-pack call
  PackMode round_mode_;
  resilience::CircuitBreaker* breaker_ = nullptr;
  Duration round_retry_after_ = Duration::zero();
  http::Request request_;
};

}  // namespace spi::core
