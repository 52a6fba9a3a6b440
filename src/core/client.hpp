// SpiClient — the client side of the SOAP Passing Interface, implementing
// the three request strategies the paper's §4.1 latency study compares:
//
//   call_serial        "No Optimization"  — M messages, one after another
//   call_multithreaded "Multiple Threads" — M messages on M client threads
//   call_packed        "Our Approach"     — ONE message carrying M calls
//
// plus the future-based Batch interface, which is the programmer-facing
// form of the pack interface: add() returns a future per call, execute()
// sends one packed message, and the client-side Dispatcher completes each
// future from the matching CallResponse.
#pragma once

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>

#include "codec/registry.hpp"
#include "common/timeout.hpp"
#include "core/assembler.hpp"
#include "core/dispatcher.hpp"
#include "http/async_client.hpp"
#include "http/client.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/deadline.hpp"
#include "resilience/hedge.hpp"
#include "resilience/retry.hpp"

namespace spi::core {

struct ClientOptions {
  /// Reuse one TCP connection for sequential messages. The paper's
  /// baselines opened a connection per message (Axis 1.3 default), so
  /// false is the faithful default; the keep-alive ablation flips it.
  bool keep_alive = false;

  /// Attach WS-Security UsernameToken headers to every request.
  std::optional<soap::WsseCredentials> wsse;
  std::uint64_t wsse_nonce_seed = 0x5eed;

  /// HTTP request target of the SPI endpoint.
  std::string target = "/spi";

  /// Calibrated packed-message handling overhead (see core/pack_cost.hpp).
  /// Disabled by default; the figure benchmarks set the testbed value.
  PackCostModel pack_cost;

  /// Bound on each response read (kNoTimeout = forever); surfaces as
  /// kTimeout. Composes with the deadline budget via min_timeout().
  Duration receive_timeout = kNoTimeout;

  /// Overall budget for one exchange — ALL attempts plus the backoff
  /// sleeps between them (kNoTimeout = none). Installed as an absolute
  /// resilience::Deadline, shipped on the wire as <spi:Deadline> so the
  /// server can shed expired work, and used to clamp each attempt's
  /// receive timeout. An ambient DeadlineScope on the calling thread
  /// takes precedence (nested exchanges inherit the caller's budget).
  Duration call_timeout = kNoTimeout;

  /// Message-level retry policy (resilience/retry.hpp). The default
  /// (max_attempts = 1) disables retrying. Wire `retry.idempotent` to
  /// ServiceRegistry::idempotency_predicate() so calls that failed after
  /// bytes were written are only replayed when that is safe.
  resilience::RetryOptions retry;

  /// Optional per-endpoint circuit breakers (borrowed, not owned; share
  /// one set across clients and pools talking to the same fleet). When
  /// set, every attempt is gated by the breaker for server(): an open
  /// breaker fails the exchange fast with kUnavailable.
  resilience::CircuitBreakerSet* breakers = nullptr;

  /// Inject a fresh spi:Trace header block (trace-id/parent-id) into
  /// every outbound message; the server propagates it into handler
  /// CallContexts and echoes it in the response (telemetry/trace.hpp).
  bool trace_propagation = true;

  http::ParserLimits http_limits;

  /// Wire codec applied to outbound request envelopes ("identity",
  /// "deflate", "bxml" — DESIGN.md §14). The request body is labelled with
  /// Content-Encoding; an unknown name fails the exchange locally with
  /// kInvalidArgument. "identity" (the default) keeps the legacy text-XML
  /// wire shape byte for byte.
  std::string request_codec = "identity";

  /// Codings advertised in Accept-Encoding so the server may encode its
  /// response. Empty (the default) sends no Accept-Encoding header and the
  /// server answers in identity. Order is preference order (highest first);
  /// qvalues descend from 1.0 automatically.
  std::vector<std::string> accept_codecs;

  /// Registry resolving codec names for both directions (borrowed, not
  /// owned). Null selects codec::CodecRegistry::builtin().
  const codec::CodecRegistry* codecs = nullptr;

  /// Reactor-driven async runtime (borrowed; DESIGN.md §16). When set,
  /// execute_packed_async() is available, and the blocking
  /// execute_packed() becomes a thin wrapper over it — one reactor loop
  /// thread drives every outstanding exchange instead of one blocked
  /// thread each. The runtime's reactor must be running for exchanges to
  /// progress, and must keep running until this client is destroyed or
  /// all exchanges have completed. Never call the blocking wrappers from
  /// the reactor loop thread (they would wait on themselves).
  http::AsyncHttpClient* async_client = nullptr;

  /// Hedged requests on the async path (resilience/hedge.hpp): fire a
  /// second identical attempt once the first outlives the learned latency
  /// quantile, take the first success, cancel the loser. Only exchanges
  /// whose every call is idempotent (per retry.idempotent) hedge, and
  /// each hedge debits the retry token budget.
  resilience::HedgeOptions hedge;
};

/// Outcomes of a pack of calls viewed in another envelope (the packing
/// proxy's relay, DESIGN.md §15), in request order: each a <return>
/// element as a backend wrote it, or the decoded fault. The reply bodies
/// those bytes lie in travel along, so the pack is self-contained.
struct RelayedPack {
  std::vector<wire::RelayedOutcome> outcomes;
  std::vector<std::unique_ptr<const std::string>> replies;
};

class SpiClient {
 public:
  struct Stats {
    Assembler::Stats assembler;
    Dispatcher::Stats dispatcher;
    /// Retries granted by the retry policy (message-level + re-packs).
    std::uint64_t retries = 0;
    /// Partial-batch replays: packed messages re-sent carrying ONLY the
    /// failed retryable sub-calls of an earlier response.
    std::uint64_t partial_repacks = 0;
    /// Exchanges refused in <1ms by an open circuit breaker.
    std::uint64_t breaker_fast_fails = 0;
    /// Retry-budget tokens currently available (0 when unlimited).
    double retry_budget = 0.0;
    /// Async packed exchanges accepted and not yet completed.
    std::uint64_t async_inflight = 0;
    /// Hedge attempts fired / won (hedge answered first) / cancelled
    /// (primary answered first, hedge leg abandoned).
    std::uint64_t hedges_sent = 0;
    std::uint64_t hedges_won = 0;
    std::uint64_t hedges_cancelled = 0;
  };

  SpiClient(net::Transport& transport, net::Endpoint server,
            ClientOptions options = {});
  ~SpiClient();

  SpiClient(const SpiClient&) = delete;
  SpiClient& operator=(const SpiClient&) = delete;

  // --- single call ----------------------------------------------------------

  /// One call in one traditional SOAP message (blocking).
  CallOutcome call(const ServiceCall& call);
  CallOutcome call(std::string service, std::string operation,
                   soap::Struct params = {});

  // --- the three strategies (§4.1) -----------------------------------------

  /// "No Optimization": M traditional messages issued sequentially from
  /// the calling thread. Outcomes in request order.
  std::vector<CallOutcome> call_serial(std::span<const ServiceCall> calls);

  /// "Multiple Threads": M traditional messages issued concurrently, one
  /// client thread and one connection per call.
  std::vector<CallOutcome> call_multithreaded(
      std::span<const ServiceCall> calls);

  /// "Our Approach": one packed message. A message-level failure (connect
  /// error, malformed response) is replicated into every outcome so all
  /// three strategies share a signature; per-call faults arrive
  /// individually. `mode` kPacked forces Parallel_Method even at M=1
  /// (the paper's M=1 overhead measurement).
  std::vector<CallOutcome> call_packed(std::span<const ServiceCall> calls,
                                       PackMode mode = PackMode::kPacked);

  /// Lower-level packed transfer that surfaces message-level failure as a
  /// single error (used by tests and Batch). With an async runtime
  /// configured this is a thin blocking wrapper over
  /// execute_packed_async().
  Result<std::vector<CallOutcome>> execute_packed(
      std::span<const ServiceCall> calls, PackMode mode = PackMode::kPacked);

  // --- async packed transfer (DESIGN.md §16) -------------------------------

  using PackedResult = Result<std::vector<CallOutcome>>;
  using PackedCallback = std::function<void(PackedResult)>;
  /// Extended completion: also delivers the LARGEST Retry-After hint any
  /// attempt observed (zero when none) — the async twin of
  /// execute_packed_on's retry_after out-param (the proxy relays the max
  /// across backends to the origin client on all-shed).
  using PackedCallbackEx =
      std::function<void(PackedResult, Duration observed_retry_after)>;

  /// Packed transfer on the configured async runtime: the full resilience
  /// pipeline — deadline capture, breaker gating, retries with wheel-timer
  /// backoff, partial-batch re-pack, hedging — runs as a state machine on
  /// the reactor loop thread; no caller thread blocks. The ambient
  /// deadline/trace are captured NOW, on the calling thread. `done` fires
  /// exactly once, on the loop thread; it must not block. Requires
  /// options.async_client (completes with kInvalidArgument otherwise).
  void execute_packed_async(std::vector<ServiceCall> calls, PackMode mode,
                            PackedCallback done);
  void execute_packed_async(std::vector<ServiceCall> calls, PackMode mode,
                            PackedCallbackEx done);

  /// The same transfer for calls viewed in another envelope (a relay):
  /// one ladder, generalized only where the batch type matters — each
  /// round is spliced (the Assembler's CallView form) instead of
  /// serialized, and each reply is viewed, only faults decoded. The calls
  /// are copied; the bytes they view must outlive `done`.
  using RelayedResult = Result<RelayedPack>;
  using RelayedCallback =
      std::function<void(RelayedResult, Duration observed_retry_after)>;
  void execute_packed_async(std::span<const wire::CallView> calls,
                            PackMode mode, RelayedCallback done);

  /// Future-returning convenience over execute_packed_async().
  std::future<PackedResult> execute_packed_future(
      std::vector<ServiceCall> calls, PackMode mode = PackMode::kPacked);

  /// True when an async runtime is configured.
  bool async_enabled() const { return options_.async_client != nullptr; }

  /// The relay transfer over a caller-supplied HTTP connection: the
  /// packing proxy keeps per-backend keep-alive pools and hands a pooled
  /// client in, so scatter legs reuse warm connections instead of dialing
  /// per message. When `retry_after` is non-null it receives the LARGEST
  /// Retry-After hint any attempt observed (zero when none) — the proxy
  /// surfaces the max across backends to the origin client on all-shed.
  RelayedResult execute_packed_on(http::HttpClient& http,
                                  std::span<const wire::CallView> calls,
                                  PackMode mode = PackMode::kPacked,
                                  Duration* retry_after = nullptr);

  // --- remote execution (the SPI suite's second interface) -----------------

  /// Ships a dependent-call plan in ONE message; the server executes the
  /// chain (later steps consuming earlier results) and returns one outcome
  /// per step. See core/remote_plan.hpp.
  Result<std::vector<CallOutcome>> execute_plan(const RemotePlan& plan);

  // --- batch/future interface ----------------------------------------------

  /// Accumulates calls, then ships them as one packed message. Futures are
  /// completed by the client-side Dispatcher when the response arrives.
  ///
  ///   auto batch = client.create_batch();
  ///   auto beijing = batch.add("WeatherService", "GetWeather", {{"city", "Beijing"}});
  ///   auto shanghai = batch.add("WeatherService", "GetWeather", {{"city", "Shanghai"}});
  ///   batch.execute();
  ///   use(beijing.get(), shanghai.get());
  class Batch {
   public:
    /// Enqueues a call; returns the future for its outcome. Must not be
    /// called after execute().
    std::future<CallOutcome> add(ServiceCall call);
    std::future<CallOutcome> add(std::string service, std::string operation,
                                 soap::Struct params = {});

    /// Sends the packed message and completes every future (with a value,
    /// a per-call fault, or the replicated message-level error). May be
    /// called once; an empty batch is a no-op. Blocking.
    void execute();

    size_t size() const { return calls_.size(); }
    bool executed() const { return executed_; }

   private:
    friend class SpiClient;
    explicit Batch(SpiClient& client) : client_(client) {}

    SpiClient& client_;
    std::vector<ServiceCall> calls_;
    std::vector<std::promise<CallOutcome>> promises_;
    bool executed_ = false;
  };

  Batch create_batch() { return Batch(*this); }

  const net::Endpoint& server() const { return server_; }
  Stats stats() const;

  /// Registers scrape-time views of this client's resilience counters
  /// (spi_client_retries_total, spi_client_retry_budget, ...) labelled
  /// client="<label>". The client must outlive the registry's last scrape.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    std::string_view label);

 private:
  /// What one exchange of a batch of `Call`s yields: decoded outcomes for
  /// ServiceCall batches, relayed ones for CallView batches. The ladders
  /// below are written once over both.
  template <class Call>
  using Outcomes = std::conditional_t<std::is_same_v<Call, ServiceCall>,
                                      std::vector<CallOutcome>, RelayedPack>;
  template <class Call>
  using Completion =
      std::function<void(Result<Outcomes<Call>>, Duration observed_retry_after)>;

  /// The async exchange state machine (client_async.cpp): lives on the
  /// reactor loop thread from start() to completion.
  template <class Call>
  struct AsyncExchange;

  /// Captures the ambient deadline/trace and posts an AsyncExchange.
  template <class Call>
  void start_async(std::vector<Call> calls, PackMode mode,
                   Completion<Call> done);

  /// Resilient HTTP exchange: deadline installation, breaker gating,
  /// message-level retry with jittered backoff, and partial-batch re-pack
  /// of failed retryable sub-calls. Delegates single attempts to
  /// attempt_exchange().
  /// `observed_retry_after`, when non-null, receives the maximum
  /// Retry-After hint seen across every attempt of the exchange.
  template <class Call>
  Result<Outcomes<Call>> exchange(std::span<const Call> calls, PackMode mode,
                                  http::HttpClient& http,
                                  Duration* observed_retry_after = nullptr);

  /// One HTTP exchange attempt: assembled envelope out, parsed outcomes
  /// back. Gated by the endpoint breaker; receive timeout clamped to the
  /// remaining deadline budget. `retry_after` reports the server's
  /// Retry-After hint from this attempt's response (zero when absent):
  /// a 503 shed's backoff floor for the next replay.
  template <class Call>
  Result<Outcomes<Call>> attempt_exchange(std::span<const Call> calls,
                                          PackMode mode,
                                          http::HttpClient& http,
                                          const resilience::Deadline& deadline,
                                          Duration& retry_after);

  /// One attempt's response -> outcomes for `calls`, in request order. A
  /// reply that does not parse fails the attempt (as kProtocolError
  /// naming the HTTP status when that was not 200).
  Result<std::vector<CallOutcome>> read_reply(
      http::Response response, std::span<const ServiceCall> calls);
  RelayedResult read_reply(http::Response response,
                           std::span<const wire::CallView> calls);

  /// The per-call outcomes of an exchange result, and the merge of a
  /// re-pack round's replay into the slots it answers.
  static std::vector<CallOutcome>& outcomes_of(
      std::vector<CallOutcome>& outcomes) {
    return outcomes;
  }
  static std::vector<wire::RelayedOutcome>& outcomes_of(RelayedPack& pack) {
    return pack.outcomes;
  }
  static void merge_replay(std::vector<CallOutcome>& into,
                           std::vector<CallOutcome>& replay,
                           std::span<const size_t> slots);
  static void merge_replay(RelayedPack& into, RelayedPack& replay,
                           std::span<const size_t> slots);

  /// True when the retry policy declares every call idempotent.
  template <class Call>
  bool all_idempotent(std::span<const Call> calls) const {
    const auto& idempotent = retry_policy_.options().idempotent;
    if (!idempotent) return false;
    for (const Call& call : calls) {
      if (!idempotent(call.service, call.operation)) return false;
    }
    return true;
  }

  /// Sleeps the jittered backoff before retry `retry_number`, never less
  /// than `floor` (the server's Retry-After hint). False when the
  /// remaining deadline budget cannot cover the sleep (retry would be
  /// pointless: the answer could not arrive in time).
  bool sleep_backoff(int retry_number, const resilience::Deadline& deadline,
                     Duration floor);

  const codec::CodecRegistry& codec_registry() const;

  /// Applies options_.request_codec to an assembled envelope and sets the
  /// Content-Encoding / Accept-Encoding request headers. Identity with no
  /// accept list leaves both the body, splices included, and the headers
  /// untouched; a codec encodes the flattened envelope.
  Result<Gathered> encode_request(Gathered envelope, http::Headers& headers);

  /// The codec a response's Content-Encoding names (absent: identity;
  /// unknown: kProtocolError).
  Result<const codec::WireCodec*> response_codec(
      const http::Response& response) const;

  /// Decodes a response body per its Content-Encoding header and parses it
  /// — through the document path for codecs that carry structure natively
  /// (bxml), through the text dispatcher otherwise. Pack cost is charged
  /// on the wire bytes. The text parse adopts the (decoded) body, so
  /// callers move the response in.
  Result<wire::ParsedResponse> parse_wire_response(http::Response response);

  net::Transport& transport_;
  net::Endpoint server_;
  ClientOptions options_;
  std::unique_ptr<soap::WsseTokenFactory> wsse_factory_;
  Assembler assembler_;
  Dispatcher dispatcher_;
  resilience::RetryPolicy retry_policy_;
  resilience::HedgePolicy hedge_policy_;
  std::atomic<std::uint64_t> partial_repacks_{0};
  std::atomic<std::uint64_t> breaker_fast_fails_{0};
  std::atomic<std::uint64_t> hedges_sent_{0};
  std::atomic<std::uint64_t> hedges_won_{0};
  std::atomic<std::uint64_t> hedges_cancelled_{0};

  /// Async exchanges in flight; the destructor waits for zero so leg
  /// callbacks never outlive the client they reference.
  std::atomic<std::uint64_t> async_inflight_{0};
  std::mutex async_mutex_;
  std::condition_variable async_cv_;

  /// Connection used by call()/call_serial (guarded: SpiClient may be
  /// shared across threads; call_multithreaded uses per-thread clients).
  std::mutex http_mutex_;
  http::HttpClient http_;
};

}  // namespace spi::core
