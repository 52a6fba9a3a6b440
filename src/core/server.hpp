// SpiServer — the paper's Figure 2 server: an HTTP/SOAP protocol stage and
// an independent application stage joined by the Dispatcher/Assembler
// pair.
//
// Lifecycle of one packed message:
//   protocol thread: read HTTP -> parse envelope -> Dispatcher.parse
//   dispatcher: post min(M, W) claimer tasks to the W-thread application
//               pool, protocol thread sleeps on the fan-in WaitGroup
//   application threads: the claimers run the M registered handlers,
//               up to W at a time
//   protocol thread (woken): Assembler packs M outcomes -> HTTP response
//
// The staged/coupled switch reproduces the ablation between Figure 2 and
// Figure 1 (application work on the protocol thread itself).
//
// Telemetry (DESIGN.md §9): every lifecycle point above is a span
// recorded into the server's MetricsRegistry — spi_http_read_seconds,
// spi_server_stage_seconds{stage="parse"|"execute"|"assemble"} — plus
// fan-out width, queue depths, admission state, and wire byte counters.
// `GET /metrics` exposes the registry as Prometheus text; `GET /healthz`
// reports stage-pool liveness and admission saturation (503 when the
// server is at its concurrency limit).
#pragma once

#include <map>
#include <memory>

#include "codec/registry.hpp"
#include "concurrency/adaptive_limiter.hpp"
#include "core/assembler.hpp"
#include "core/handlers.hpp"
#include "core/dispatcher.hpp"
#include "core/registry.hpp"
#include "http/server.hpp"
#include "telemetry/metrics.hpp"

namespace spi::core {

struct ServerOptions {
  /// Protocol stage width (HTTP connections served concurrently).
  size_t protocol_threads = 8;

  /// Application stage width (concurrent operation executions).
  size_t application_threads = 8;

  /// Reactor event loops driving fd-backed connections in the protocol
  /// stage (DESIGN.md §12). 0 forces the blocking thread-per-connection
  /// driver; simulated transports always use the blocking driver.
  size_t reactor_threads = 1;

  /// One SO_REUSEPORT listener per reactor loop where the transport
  /// supports it (DESIGN.md §13); false keeps the single loop-0 listener
  /// with round-robin handoff.
  bool accept_sharding = true;

  /// Accepts drained per listener readiness wake (0 = unbounded); bounds
  /// how long a connect flood can monopolize a loop.
  size_t accept_batch_per_wake = 64;

  /// Pin reactor loop i to CPU (i mod cores). Off by default.
  bool pin_reactor_threads = false;

  /// false = Figure 1 coupled architecture (handlers run on the protocol
  /// thread); true = Figure 2 staged architecture.
  bool staged = true;

  /// Require and verify wsse:Security headers on every request.
  std::optional<soap::WsseCredentials> wsse;

  /// Calibrated packed-message handling overhead (see core/pack_cost.hpp).
  PackCostModel pack_cost;

  /// Admission control (SEDA well-conditioning): messages being executed
  /// concurrently beyond this bound are rejected with HTTP 503 + a Server
  /// fault instead of queuing unboundedly. 0 = unlimited.
  size_t max_concurrent_messages = 0;

  /// Bound on the graceful drain in stop(): the server stops accepting,
  /// then waits up to this long for in-flight requests to finish before
  /// tearing the protocol stage down. kNoTimeout skips the drain (the
  /// pre-resilience hard stop).
  Duration drain_timeout = std::chrono::milliseconds(500);

  /// Shared metrics registry to record into (unowned; must outlive the
  /// server). Null: the server creates and owns its own. Either way the
  /// registry is what GET /metrics exposes and metrics() returns, so
  /// other components (an AsyncHttpClient, an AutoBatcher) can bind into
  /// the same scrape.
  telemetry::MetricsRegistry* metrics = nullptr;

  http::ParserLimits http_limits;

  /// Resource governance (DESIGN.md §11): tokenizer bounds applied to every
  /// request parse, and message-shape bounds (fan-out, body entries,
  /// header blocks). Rejections increment
  /// spi_limit_rejections_total{limit=...}.
  xml::ParseLimits parse_limits;
  soap::EnvelopeLimits envelope_limits;

  /// Bounds the application-stage queue (0 = unbounded) in tasks: a
  /// packed message queues at most min(M, application_threads) claimer
  /// tasks, a plan one. When the queue admits none of a message's tasks,
  /// its calls are shed with a retryable CapacityExceeded fault instead of
  /// blocking the protocol thread on its sibling stage; once one claimer
  /// is admitted, every call runs.
  size_t application_queue_capacity = 0;

  /// Optional adaptive concurrency limiter (AIMD on execute-stage latency)
  /// layered beneath the static max_concurrent_messages bound: it learns
  /// how much work the application stage can run before latency degrades
  /// and sheds the rest with 503 + Retry-After.
  std::optional<AdaptiveLimiterOptions> adaptive_limit;

  /// Backoff hint attached as a Retry-After header (decimal seconds) to
  /// every 503 shed response; retrying clients use it as a backoff floor.
  Duration retry_after_hint = std::chrono::milliseconds(50);

  /// Registry resolving wire-codec names for request Content-Encoding
  /// decode and response Accept-Encoding negotiation (DESIGN.md §14).
  /// Borrowed, not owned; null selects codec::CodecRegistry::builtin().
  const codec::CodecRegistry* codecs = nullptr;

  /// Output budget when decoding an encoded request body — the
  /// decompression-bomb shed, rejected as HTTP 400 and counted under
  /// spi_limit_rejections_total{limit="decoded-bytes"}. 0 derives the
  /// bound from http_limits.max_body_bytes (an encoded body may not
  /// expand past what an identity body could have carried).
  size_t max_decoded_body_bytes = 0;
};

class SpiServer {
 public:
  struct Stats {
    Dispatcher::Stats dispatcher;
    Assembler::Stats assembler;
    std::uint64_t http_requests = 0;
    std::uint64_t application_tasks = 0;
    std::uint64_t admission_rejections = 0;
    /// Messages shed before envelope parse because Deadline::scan found an
    /// already-expired budget; execute-stage sheds are dispatcher.deadline_shed.
    std::uint64_t deadline_shed_pre_parse = 0;
    /// Messages shed by the adaptive concurrency limiter (503 + Retry-After).
    std::uint64_t adaptive_shed = 0;
    /// Whole-message rejections attributed to a named parse/envelope limit
    /// (spi_limit_rejections_total); per-call fan-out rejections are
    /// dispatcher.limit_rejected_calls.
    std::uint64_t limit_rejections = 0;
  };

  /// The registry is borrowed and must outlive the server; registering
  /// more operations while serving is allowed (shared_mutex inside).
  SpiServer(net::Transport& transport, net::Endpoint at,
            const ServiceRegistry& registry, ServerOptions options = {});
  ~SpiServer();

  SpiServer(const SpiServer&) = delete;
  SpiServer& operator=(const SpiServer&) = delete;

  Status start();
  void stop();

  /// Axis-style handler chain (core/handlers.hpp); add handlers before
  /// start(). Request handlers may veto a message (SOAP fault).
  HandlerChain& handlers() { return handler_chain_; }

  net::Endpoint endpoint() const;
  Stats stats() const;

  /// The metrics registry this server records into (its own unless
  /// ServerOptions.metrics supplied one). What GET /metrics serves.
  telemetry::MetricsRegistry& metrics() { return *metrics_; }

  /// The HTTP layer beneath this server, for per-loop reactor telemetry
  /// (loop_count/loop_snapshot, accept_sharded, sendv counters) — benches
  /// read the accept-sharding balance from here without scraping
  /// /metrics text.
  const http::HttpServer& http_server() const { return *http_server_; }

 private:
  /// Consumes the request body: the parse adopts it (no copy).
  http::Response handle(http::Request&& request);
  http::Response handle_wsdl(const http::Request& request);
  http::Response handle_metrics();
  http::Response handle_healthz();
  void register_instruments(net::Transport& transport);
  bool admission_saturated() const;
  /// Maps a rejection message carrying "limit exceeded: <limit>" to its
  /// spi_limit_rejections_total{limit=...} counter (null if unrecognized).
  telemetry::Counter* limit_rejection_counter(std::string_view message);
  /// Negotiates the response codec from the request's Accept-Encoding
  /// header (absent/unknown → identity), counting the choice and any
  /// fallback.
  const codec::WireCodec& negotiate_response_codec(
      const http::Request& request);
  /// Encodes an assembled response body with `codec`, flattening its
  /// splices first. Returns the envelope unchanged, splices included, and
  /// leaves *applied empty for identity; returns it flattened, *applied
  /// empty, on encode failure.
  Gathered encode_response(const codec::WireCodec& codec, Gathered plain,
                           std::string* applied);

  const ServiceRegistry& registry_;
  ServerOptions options_;
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<soap::WsseVerifier> verifier_;
  Dispatcher dispatcher_;
  Assembler assembler_;
  HandlerChain handler_chain_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> deadline_shed_pre_parse_{0};
  std::unique_ptr<AdaptiveLimiter> adaptive_limiter_;
  std::string retry_after_value_;  // precomputed decimal seconds
  telemetry::Counter* admission_rejections_ = nullptr;  // registry-owned
  telemetry::Counter* shed_draining_ = nullptr;
  telemetry::Counter* shed_concurrency_ = nullptr;
  telemetry::Counter* shed_adaptive_ = nullptr;
  std::map<std::string, telemetry::Counter*, std::less<>> limit_counters_;
  const codec::CodecRegistry* codecs_ = nullptr;  // never null after ctor
  telemetry::Counter* codec_fallbacks_ = nullptr;  // registry-owned
  std::map<std::string, telemetry::Counter*, std::less<>> codec_negotiations_;
  std::map<std::string, telemetry::Counter*, std::less<>> codec_encoded_bytes_;
  std::map<std::string, telemetry::Counter*, std::less<>> codec_decoded_bytes_;
  telemetry::Histogram* span_parse_ = nullptr;          // registry-owned
  telemetry::Histogram* span_execute_ = nullptr;
  telemetry::Histogram* span_assemble_ = nullptr;
  telemetry::Histogram* fanout_width_ = nullptr;
  telemetry::Histogram* http_read_ = nullptr;
  telemetry::Histogram* application_wait_ = nullptr;
  std::unique_ptr<ThreadPool> application_pool_;
  std::unique_ptr<http::HttpServer> http_server_;
};

}  // namespace spi::core
