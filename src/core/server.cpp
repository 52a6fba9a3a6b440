#include "core/server.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "common/timeout.hpp"
#include "resilience/deadline.hpp"
#include "soap/wsdl.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {

SpiServer::SpiServer(net::Transport& transport, net::Endpoint at,
                     const ServiceRegistry& registry, ServerOptions options)
    : registry_(registry),
      options_(options),
      owned_metrics_(options_.metrics
                         ? nullptr
                         : std::make_unique<telemetry::MetricsRegistry>()),
      metrics_(options_.metrics ? options_.metrics : owned_metrics_.get()),
      verifier_(options_.wsse ? std::make_unique<soap::WsseVerifier>(
                                    *options_.wsse)
                              : nullptr),
      dispatcher_(verifier_.get(), options_.pack_cost),
      assembler_(nullptr, options_.pack_cost) {
  dispatcher_.set_limits(options_.parse_limits, options_.envelope_limits);
  codecs_ =
      options_.codecs ? options_.codecs : &codec::CodecRegistry::builtin();
  if (options_.adaptive_limit) {
    adaptive_limiter_ =
        std::make_unique<AdaptiveLimiter>(*options_.adaptive_limit);
  }
  {
    double seconds = std::chrono::duration<double>(
                         std::max(options_.retry_after_hint, Duration::zero()))
                         .count();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", seconds);
    retry_after_value_ = buffer;
  }

  telemetry::MetricsRegistry& reg = *metrics_;
  admission_rejections_ =
      &reg.counter("spi_server_admission_rejections_total",
                   "Messages rejected at the concurrency limit (HTTP 503)");
  shed_draining_ = &reg.counter(
      "spi_admission_shed_total",
      "Messages shed at admission with 503 + Retry-After, by reason",
      "reason=\"draining\"");
  shed_concurrency_ = &reg.counter(
      "spi_admission_shed_total",
      "Messages shed at admission with 503 + Retry-After, by reason",
      "reason=\"concurrency-limit\"");
  shed_adaptive_ = &reg.counter(
      "spi_admission_shed_total",
      "Messages shed at admission with 503 + Retry-After, by reason",
      "reason=\"adaptive-limit\"");
  // Pre-register one rejection counter per governed limit so /metrics
  // shows explicit zeros before the first hostile message arrives.
  for (const char* limit :
       {"depth", "tokens", "attributes", "name-bytes",
        "attribute-value-bytes", "entity-expansion", "body-entries",
        "header-blocks", "decoded-bytes"}) {
    limit_counters_.emplace(
        limit, &reg.counter("spi_limit_rejections_total",
                            "Messages rejected by a resource-governance "
                            "limit (DESIGN.md §11)",
                            "limit=\"" + std::string(limit) + "\""));
  }
  // Wire-codec telemetry (DESIGN.md §14): bytes crossing the codec
  // boundary and the outcome of each response negotiation, per codec.
  codec_fallbacks_ = &reg.counter(
      "spi_codec_fallbacks_total",
      "Accept-Encoding advertisements that matched no registered codec "
      "(response fell back to identity)");
  for (const std::string& name : codecs_->names()) {
    const std::string label = "codec=\"" + name + "\"";
    codec_negotiations_.emplace(
        name, &reg.counter("spi_codec_negotiations_total",
                           "Response codec negotiations by chosen codec",
                           label));
    codec_encoded_bytes_.emplace(
        name, &reg.counter("spi_codec_encoded_bytes_total",
                           "Encoded response-body bytes put on the wire, "
                           "by codec",
                           label));
    codec_decoded_bytes_.emplace(
        name, &reg.counter("spi_codec_decoded_bytes_total",
                           "Encoded request-body bytes accepted for "
                           "decode, by codec",
                           label));
  }
  span_parse_ = &reg.histogram(
      "spi_server_stage_seconds",
      "Per-message time in each lifecycle stage (Figure 2 span points)",
      "stage=\"parse\"");
  span_execute_ = &reg.histogram(
      "spi_server_stage_seconds",
      "Per-message time in each lifecycle stage (Figure 2 span points)",
      "stage=\"execute\"");
  span_assemble_ = &reg.histogram(
      "spi_server_stage_seconds",
      "Per-message time in each lifecycle stage (Figure 2 span points)",
      "stage=\"assemble\"");
  fanout_width_ = &reg.histogram(
      "spi_server_fanout_width",
      "Calls carried per message (packed Parallel_Method width)", {},
      telemetry::HistogramUnit::kNone);
  http_read_ = &reg.histogram(
      "spi_http_read_seconds",
      "First byte to complete HTTP request (protocol-stage read span)");
  application_wait_ = &reg.histogram(
      "spi_pool_task_wait_seconds",
      "Queue wait from submit to worker pickup",
      "pool=\"application\"");

  if (options_.staged) {
    application_pool_ = std::make_unique<ThreadPool>(
        options_.application_threads, "spi-application",
        options_.application_queue_capacity);
    application_pool_->set_wait_histogram(application_wait_);
  }
  http::ServerOptions http_options;
  http_options.protocol_threads = options_.protocol_threads;
  http_options.reactor_threads = options_.reactor_threads;
  http_options.accept_sharding = options_.accept_sharding;
  http_options.accept_batch_per_wake = options_.accept_batch_per_wake;
  http_options.pin_reactor_threads = options_.pin_reactor_threads;
  http_options.limits = options_.http_limits;
  http_options.read_latency = http_read_;
  http_server_ = std::make_unique<http::HttpServer>(
      transport, std::move(at),
      [this](http::Request&& request) { return handle(std::move(request)); },
      http_options);

  register_instruments(transport);
}

SpiServer::~SpiServer() { stop(); }

Status SpiServer::start() { return http_server_->start(); }

void SpiServer::stop() {
  // Graceful drain: stop admitting work, let what's in flight finish (up
  // to drain_timeout), then tear the stages down. healthz reports
  // "draining" with 503 meanwhile so load balancers route away.
  draining_.store(true, std::memory_order_release);
  if (!is_unbounded(options_.drain_timeout)) {
    http_server_->stop_accepting();
    const TimePoint give_up =
        RealClock::instance().now() + options_.drain_timeout;
    while (RealClock::instance().now() < give_up &&
           (http_server_->active_requests() > 0 ||
            in_flight_.load(std::memory_order_acquire) > 0)) {
      RealClock::instance().sleep_for(std::chrono::milliseconds(1));
    }
  }
  http_server_->stop();
  // The application pool drains after the protocol stage stops feeding it.
  application_pool_.reset();
}

net::Endpoint SpiServer::endpoint() const { return http_server_->endpoint(); }

void SpiServer::register_instruments(net::Transport& transport) {
  telemetry::MetricsRegistry& reg = *metrics_;
  dispatcher_.bind_metrics(reg, "server");
  assembler_.bind_metrics(reg, "server");
  telemetry::bind_buffer_pool_metrics(reg);

  reg.add_callback("spi_server_in_flight",
                   "Messages currently being executed",
                   telemetry::CallbackKind::kGauge, {}, [this]() -> double {
                     return static_cast<double>(
                         in_flight_.load(std::memory_order_relaxed));
                   });
  reg.add_callback("spi_http_requests_total",
                   "HTTP requests served by the protocol stage",
                   telemetry::CallbackKind::kCounter, {}, [this]() -> double {
                     return static_cast<double>(
                         http_server_->requests_served());
                   });
  reg.add_callback("spi_server_deadline_shed_total",
                   "Work shed because its deadline had already passed",
                   telemetry::CallbackKind::kCounter, "stage=\"pre-parse\"",
                   [this]() -> double {
                     return static_cast<double>(deadline_shed_pre_parse_.load(
                         std::memory_order_relaxed));
                   });
  reg.add_callback("spi_server_deadline_shed_total",
                   "Work shed because its deadline had already passed",
                   telemetry::CallbackKind::kCounter, "stage=\"execute\"",
                   [this]() -> double {
                     return static_cast<double>(
                         dispatcher_.stats().deadline_shed);
                   });
  reg.add_callback("spi_admission_shed_total",
                   "Messages shed at admission with 503 + Retry-After, by "
                   "reason",
                   telemetry::CallbackKind::kCounter, "reason=\"queue-full\"",
                   [this]() -> double {
                     return static_cast<double>(
                         dispatcher_.stats().queue_full_shed);
                   });
  reg.add_callback("spi_limit_rejections_total",
                   "Messages rejected by a resource-governance limit "
                   "(DESIGN.md §11)",
                   telemetry::CallbackKind::kCounter, "limit=\"fan-out\"",
                   [this]() -> double {
                     return static_cast<double>(
                         dispatcher_.stats().limit_rejected_calls);
                   });
  reg.add_callback("spi_admission_adaptive_limit",
                   "Current learned concurrency limit (0 = limiter off)",
                   telemetry::CallbackKind::kGauge, {}, [this]() -> double {
                     return adaptive_limiter_ ? static_cast<double>(
                                                    adaptive_limiter_->limit())
                                              : 0.0;
                   });
  reg.add_callback("spi_reactor_connections",
                   "Connections attached to reactor event loops",
                   telemetry::CallbackKind::kGauge, {}, [this]() -> double {
                     return static_cast<double>(
                         http_server_->reactor_connections());
                   });
  reg.add_callback("spi_reactor_loop_iterations_total",
                   "Reactor event-loop iterations across all loops",
                   telemetry::CallbackKind::kCounter, {}, [this]() -> double {
                     return static_cast<double>(
                         http_server_->reactor_loop_iterations());
                   });
  reg.add_callback("spi_reactor_accept_sharded",
                   "1 when every reactor loop owns a SO_REUSEPORT listener",
                   telemetry::CallbackKind::kGauge, {}, [this]() -> double {
                     return http_server_->accept_sharded() ? 1.0 : 0.0;
                   });
  reg.add_callback("spi_sendv_batches_total",
                   "Vectored (writev) gathers issued on the reactor path",
                   telemetry::CallbackKind::kCounter, {}, [this]() -> double {
                     return static_cast<double>(http_server_->sendv_batches());
                   });
  reg.add_callback("spi_sendv_segments_total",
                   "Response segments that reached the wire as iovecs, "
                   "with no coalescing copy",
                   telemetry::CallbackKind::kCounter, {}, [this]() -> double {
                     return static_cast<double>(
                         http_server_->sendv_segments());
                   });
  // Per-loop series proving the accept sharding spreads connections and
  // work evenly (DESIGN.md §13 scaling study).
  for (size_t i = 0; i < http_server_->loop_count(); ++i) {
    const std::string label = "loop=\"" + std::to_string(i) + "\"";
    reg.add_callback("spi_reactor_loop_connections",
                     "Connections attached to this reactor loop",
                     telemetry::CallbackKind::kGauge, label,
                     [this, i]() -> double {
                       return static_cast<double>(
                           http_server_->loop_snapshot(i).connections);
                     });
    reg.add_callback("spi_reactor_loop_accepts_total",
                     "Connections accepted by this loop's listener",
                     telemetry::CallbackKind::kCounter, label,
                     [this, i]() -> double {
                       return static_cast<double>(
                           http_server_->loop_snapshot(i).accepts);
                     });
    reg.add_callback("spi_reactor_loop_bytes_written_total",
                     "Response bytes this loop wrote to the wire",
                     telemetry::CallbackKind::kCounter, label,
                     [this, i]() -> double {
                       return static_cast<double>(
                           http_server_->loop_snapshot(i).bytes_written);
                     });
  }
  reg.add_callback("spi_timer_wheel_depth",
                   "Pending connection timers across all timer wheels",
                   telemetry::CallbackKind::kGauge, {}, [this]() -> double {
                     return static_cast<double>(
                         http_server_->timer_wheel_depth());
                   });
  reg.add_callback("spi_server_draining",
                   "1 while the server is draining (stop() in progress)",
                   telemetry::CallbackKind::kGauge, {}, [this]() -> double {
                     return draining_.load(std::memory_order_acquire) ? 1.0
                                                                      : 0.0;
                   });

  struct PoolView {
    const char* label;
    std::function<const ThreadPool*()> pool;
  };
  const PoolView views[] = {
      {"pool=\"application\"",
       [this]() -> const ThreadPool* { return application_pool_.get(); }},
      {"pool=\"http-protocol\"",
       [this]() -> const ThreadPool* {
         return http_server_->protocol_pool();
       }},
  };
  for (const PoolView& view : views) {
    reg.add_callback("spi_pool_queue_depth",
                     "Tasks enqueued but not yet picked up by a worker",
                     telemetry::CallbackKind::kGauge, view.label,
                     [pool = view.pool]() -> double {
                       const ThreadPool* p = pool();
                       return p ? static_cast<double>(p->queue_depth()) : 0.0;
                     });
    reg.add_callback("spi_pool_active_workers",
                     "Workers currently executing a task",
                     telemetry::CallbackKind::kGauge, view.label,
                     [pool = view.pool]() -> double {
                       const ThreadPool* p = pool();
                       return p ? static_cast<double>(p->active_workers())
                                : 0.0;
                     });
    reg.add_callback("spi_pool_tasks_completed_total",
                     "Tasks executed to completion",
                     telemetry::CallbackKind::kCounter, view.label,
                     [pool = view.pool]() -> double {
                       const ThreadPool* p = pool();
                       return p ? static_cast<double>(p->completed_tasks())
                                : 0.0;
                     });
  }

  reg.add_callback("spi_net_bytes_sent_total", "Bytes written to the wire",
                   telemetry::CallbackKind::kCounter, {},
                   [&transport]() -> double {
                     return static_cast<double>(transport.stats().bytes_sent);
                   });
  reg.add_callback("spi_net_bytes_received_total", "Bytes read from the wire",
                   telemetry::CallbackKind::kCounter, {},
                   [&transport]() -> double {
                     return static_cast<double>(
                         transport.stats().bytes_received);
                   });
  reg.add_callback("spi_net_connections_total", "Connections opened",
                   telemetry::CallbackKind::kCounter, {},
                   [&transport]() -> double {
                     return static_cast<double>(
                         transport.stats().connections_opened);
                   });
}

telemetry::Counter* SpiServer::limit_rejection_counter(
    std::string_view message) {
  // Limit rejections carry a machine-recognizable shape by convention:
  // "parse limit exceeded: <limit> (...)" from the tokenizer and
  // "envelope limit exceeded: <limit> (...)" from message-shape checks.
  constexpr std::string_view kMarker = "limit exceeded: ";
  size_t at = message.find(kMarker);
  if (at == std::string_view::npos) return nullptr;
  std::string_view limit = message.substr(at + kMarker.size());
  size_t end = limit.find_first_of(" (");
  if (end != std::string_view::npos) limit = limit.substr(0, end);
  auto found = limit_counters_.find(limit);
  return found == limit_counters_.end() ? nullptr : found->second;
}

const codec::WireCodec& SpiServer::negotiate_response_codec(
    const http::Request& request) {
  auto accept = request.headers.get("Accept-Encoding");
  if (!accept) return codec::identity_codec();
  auto entries = http::parse_accept_encoding(*accept);
  std::vector<codec::CodecPreference> preferences;
  preferences.reserve(entries.size());
  for (http::AcceptEncodingEntry& entry : entries) {
    preferences.push_back({std::move(entry.name), entry.q});
  }
  bool fell_back = false;
  const codec::WireCodec& chosen = codecs_->negotiate(preferences, &fell_back);
  if (fell_back) codec_fallbacks_->inc();
  if (auto found = codec_negotiations_.find(chosen.name());
      found != codec_negotiations_.end()) {
    found->second->inc();
  }
  return chosen;
}

Gathered SpiServer::encode_response(const codec::WireCodec& codec,
                                    Gathered plain, std::string* applied) {
  applied->clear();
  if (codec.name() == "identity") return plain;
  std::string text = std::move(plain).flatten();
  auto encoded = codec.encode(text);
  // Encode failure falls back to identity text: compression is an
  // optimization, never a reason to fault a message that executed.
  if (!encoded.ok()) return Gathered(std::move(text));
  *applied = std::string(codec.name());
  if (auto found = codec_encoded_bytes_.find(codec.name());
      found != codec_encoded_bytes_.end()) {
    found->second->inc(encoded.value().size());
  }
  return Gathered(std::move(encoded).value());
}

bool SpiServer::admission_saturated() const {
  return options_.max_concurrent_messages > 0 &&
         in_flight_.load(std::memory_order_relaxed) >=
             options_.max_concurrent_messages;
}

http::Response SpiServer::handle_metrics() {
  return http::Response::make(200, "OK", metrics_->expose(),
                              "text/plain; version=0.0.4");
}

http::Response SpiServer::handle_healthz() {
  // Liveness + admission state. 503 while the server is at its concurrency
  // limit so load balancers stop routing here (SEDA well-conditioning made
  // observable), and likewise while draining; otherwise 200 with the
  // stage-pool vitals.
  const bool draining = draining_.load(std::memory_order_acquire);
  const bool saturated = admission_saturated();
  const ThreadPool* protocol = http_server_->protocol_pool();
  std::string body = "{\"status\":\"";
  body += draining ? "draining" : (saturated ? "overloaded" : "ok");
  body += "\",\"staged\":";
  body += options_.staged ? "true" : "false";
  body += ",\"in_flight\":";
  body += std::to_string(in_flight_.load(std::memory_order_relaxed));
  body += ",\"max_concurrent_messages\":";
  body += std::to_string(options_.max_concurrent_messages);
  body += ",\"admission_rejections\":";
  body += std::to_string(admission_rejections_->value());
  body += ",\"protocol_pool\":{\"threads\":";
  body += std::to_string(protocol ? protocol->thread_count() : 0);
  body += ",\"active\":";
  body += std::to_string(protocol ? protocol->active_workers() : 0);
  body += "},\"application_pool\":{\"threads\":";
  body += std::to_string(
      application_pool_ ? application_pool_->thread_count() : 0);
  body += ",\"active\":";
  body += std::to_string(
      application_pool_ ? application_pool_->active_workers() : 0);
  body += ",\"queue_depth\":";
  body += std::to_string(
      application_pool_ ? application_pool_->queue_depth() : 0);
  body += "}}";
  const int status = (saturated || draining) ? 503 : 200;
  return http::Response::make(status, http::default_reason(status),
                              std::move(body), "application/json");
}

http::Response SpiServer::handle(http::Request&& request) {
  if (request.method == "GET") {
    if (request.target == "/metrics") return handle_metrics();
    if (request.target == "/healthz") return handle_healthz();
    // Service descriptions: GET /{service}?wsdl, like 2006 containers.
    if (ends_with(request.target, "?wsdl")) return handle_wsdl(request);
  }
  if (request.method != "POST") {
    return http::Response::make(405, "Method Not Allowed",
                                "SOAP endpoint accepts POST only");
  }

  auto respond_fault = [&](const Error& error, int status) {
    // A message-level failure becomes a traditional Fault envelope with an
    // HTTP 500/400, per the SOAP 1.1 HTTP binding.
    std::string body =
        soap::build_envelope(soap::Fault::from_error(error).to_xml());
    return http::Response::make(status, http::default_reason(status),
                                std::move(body), "text/xml");
  };
  // A shed is a fault the server produced WITHOUT executing anything:
  // 503 + Retry-After so well-behaved clients back off at least that long
  // before replaying (resilience/retry.hpp honors it as a floor).
  auto respond_shed = [&](const Error& error, telemetry::Counter* reason) {
    if (reason) reason->inc();
    http::Response response = respond_fault(error, 503);
    response.headers.set("Retry-After", retry_after_value_);
    return response;
  };

  // While draining, answer work with a Shutdown fault: the server
  // guarantees nothing executed, so retry policies replay it elsewhere.
  if (draining_.load(std::memory_order_acquire)) {
    return respond_shed(Error(ErrorCode::kShutdown, "server is draining"),
                        shed_draining_);
  }

  // Wire-codec decode (DESIGN.md §14): a Content-Encoding label selects
  // the codec that turns this body back into an envelope. Unknown codings
  // are 415 — the client mislabeled its bytes, parsing them as XML could
  // only produce a confusing parse error.
  const codec::WireCodec* request_codec = &codec::identity_codec();
  if (auto coding = request.headers.get("Content-Encoding")) {
    const codec::WireCodec* found = codecs_->find(*coding);
    if (!found) {
      return respond_fault(
          Error(ErrorCode::kInvalidArgument,
                "unsupported Content-Encoding: " + std::string(*coding)),
          415);
    }
    request_codec = found;
  }
  const bool encoded_request = request_codec->name() != "identity";
  const size_t decoded_budget = options_.max_decoded_body_bytes > 0
                                    ? options_.max_decoded_body_bytes
                                    : options_.http_limits.max_body_bytes;
  if (encoded_request) {
    if (auto found = codec_decoded_bytes_.find(request_codec->name());
        found != codec_decoded_bytes_.end()) {
      found->second->inc(request.body.size());
    }
  }
  // Text codecs (deflate) inflate here, under the decoded-bytes budget, so
  // the deadline scan below still sees text; bxml goes straight to a
  // Document inside the parse span and skips the scan (its deadline header
  // is still enforced at the execute-stage boundary).
  std::string decoded_body;
  if (encoded_request && !request_codec->decodes_to_document()) {
    auto plain = request_codec->decode(request.body, decoded_budget);
    if (!plain.ok()) {
      SPI_LOG(kDebug, "spi.server")
          << "rejecting request: " << plain.error().to_string();
      if (telemetry::Counter* counter =
              limit_rejection_counter(plain.error().message())) {
        counter->inc();
      }
      return respond_fault(plain.error(), 400);
    }
    decoded_body = std::move(plain).value();
  }
  const std::string_view text_body =
      encoded_request ? std::string_view(decoded_body)
                      : std::string_view(request.body);

  // Pre-parse deadline shed (SEDA stage boundary 1): a bounded substring
  // scan over the raw document — if the client's budget is already spent,
  // answering DeadlineExceeded now beats paying the parse stage for an
  // answer nobody is waiting for.
  if (!encoded_request || !request_codec->decodes_to_document()) {
    const TimePoint now = RealClock::instance().now();
    if (auto scanned = resilience::Deadline::scan(text_body, now);
        scanned && scanned->expired(now)) {
      deadline_shed_pre_parse_.fetch_add(1, std::memory_order_relaxed);
      return respond_fault(Error(ErrorCode::kDeadlineExceeded,
                                 "deadline expired before parse stage"),
                           504);
    }
  }

  telemetry::ScopedSpan parse_span(span_parse_);
  auto parsed = [&]() -> Result<wire::ParsedRequest> {
    if (!encoded_request) {
      return dispatcher_.parse_request(std::move(request.body));
    }
    if (request_codec->decodes_to_document()) {
      auto document = request_codec->decode_document(
          request.body, decoded_budget, options_.parse_limits);
      if (!document.ok()) return document.wrap_error("decode request");
      return dispatcher_.parse_request_document(std::move(document).value(),
                                                request.body.size());
    }
    // The tokenizer runs over the inflated text, but the modeled handler
    // stack only ever copied the wire bytes — capture the parse charge and
    // replay it at the encoded size.
    PackCostDeferral deferral;
    auto result = dispatcher_.parse_request(std::move(decoded_body));
    deferral.replay(request.body.size());
    return result;
  }();
  parse_span.stop();
  if (!parsed.ok()) {
    SPI_LOG(kDebug, "spi.server")
        << "rejecting request: " << parsed.error().to_string();
    // Resource-governance rejections ("parse limit exceeded: depth ...",
    // "envelope limit exceeded: body-entries ...") are counted per limit.
    // They stay HTTP 400 without Retry-After: the message itself is over
    // the bound, so replaying it unchanged cannot succeed.
    if (telemetry::Counter* counter =
            limit_rejection_counter(parsed.error().message())) {
      counter->inc();
    }
    return respond_fault(parsed.error(), 400);
  }
  fanout_width_->observe(static_cast<double>(parsed.value().call_count()));

  // Response codec: negotiated per request from Accept-Encoding, stateless,
  // so pooled keep-alive connections can switch codecs between messages.
  // Only the success-path envelope below is encoded; fault and shed
  // responses stay identity text (a client that cannot decode its error
  // would be stuck).
  const codec::WireCodec& response_codec = negotiate_response_codec(request);

  // The incoming trace (if the client injected one) scopes execution and
  // assembly: handlers see it in their CallContext, the Assembler echoes
  // it in the response envelope.
  std::optional<telemetry::TraceScope> trace_scope;
  if (parsed.value().trace.valid()) {
    trace_scope.emplace(parsed.value().trace);
    SPI_LOG(kDebug, "spi.server")
        << "message trace=" << parsed.value().trace.trace_id
        << " calls=" << parsed.value().call_count();
  }

  // Admission control: bound concurrently-executing messages (SEDA
  // well-conditioning) rather than queueing without limit.
  if (options_.max_concurrent_messages > 0) {
    size_t current = in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (current >= options_.max_concurrent_messages) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      admission_rejections_->inc();
      return respond_shed(Error(ErrorCode::kCapacityExceeded,
                                "server is at its concurrency limit"),
                          shed_concurrency_);
    }
  }
  struct InFlightGuard {
    SpiServer* server;
    ~InFlightGuard() {
      if (server->options_.max_concurrent_messages > 0) {
        server->in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  } in_flight_guard{this};

  // Adaptive admission beneath the static bound: the AIMD limiter tracks
  // execute-stage latency and refuses work past the point where adding
  // more only slows everyone down. Refusals are identical on the wire to
  // static sheds (503 + Retry-After, nothing executed).
  struct AdaptiveGuard {
    AdaptiveLimiter* limiter = nullptr;
    bool sampled = false;
    double latency_us = 0.0;
    ~AdaptiveGuard() {
      if (!limiter) return;
      if (sampled) {
        limiter->release(latency_us);
      } else {
        limiter->release_unsampled();
      }
    }
  } adaptive_guard;
  if (adaptive_limiter_) {
    if (!adaptive_limiter_->try_acquire()) {
      return respond_shed(
          Error(ErrorCode::kCapacityExceeded,
                "server shed this message at its adaptive concurrency limit"),
          shed_adaptive_);
    }
    adaptive_guard.limiter = adaptive_limiter_.get();
  }

  // Handler chain, request phase: a veto faults the whole message.
  HandlerContext context;
  context.request = &parsed.value();
  context.target = request.target;
  if (Status vetoed = handler_chain_.run_request(context); !vetoed.ok()) {
    int status =
        vetoed.error().code() == ErrorCode::kCapacityExceeded ? 503 : 400;
    return respond_fault(vetoed.error(), status);
  }

  telemetry::ScopedSpan execute_span(span_execute_);
  const auto execute_start = std::chrono::steady_clock::now();
  std::vector<IndexedOutcome> outcomes =
      dispatcher_.execute(parsed.value(), registry_, application_pool_.get());
  if (adaptive_guard.limiter) {
    adaptive_guard.latency_us = std::chrono::duration<double, std::micro>(
                                    std::chrono::steady_clock::now() -
                                    execute_start)
                                    .count();
    adaptive_guard.sampled = true;
  }
  execute_span.stop();

  // Handler chain, response phase (reverse order).
  context.outcomes = &outcomes;
  handler_chain_.run_response(context);

  telemetry::ScopedSpan assemble_span(span_assemble_);
  // Packed requests (Parallel_Method / Remote_Execution) get packed
  // responses; the single call is only consulted for traditional framing.
  static const ServiceCall kNoCall{};
  const ServiceCall& single_call = parsed.value().calls.empty()
                                       ? kNoCall
                                       : parsed.value().calls.front().call;
  Gathered body;
  std::string content_encoding;
  {
    // Capture the assemble charge and replay it at the size that actually
    // crosses the wire (the encoded body when a codec was negotiated; the
    // spliced strings count, since they cross it too).
    PackCostDeferral deferral;
    body = encode_response(
        response_codec,
        assembler_.assemble_response(outcomes, single_call,
                                     parsed.value().packed),
        &content_encoding);
    deferral.replay(body.size());
  }
  assemble_span.stop();

  // Per-call faults ride inside a 200 for packed messages; a traditional
  // single-call fault surfaces as HTTP 500 like classic SOAP stacks.
  int status = 200;
  if (!parsed.value().packed && !outcomes.front().outcome.ok()) {
    status = 500;
  }
  http::Response response = http::Response::make(
      status, http::default_reason(status), std::move(body), "text/xml");
  if (!content_encoding.empty()) {
    response.headers.set("Content-Encoding", content_encoding);
  }
  return response;
}

http::Response SpiServer::handle_wsdl(const http::Request& request) {
  // Target shape: "/{service}?wsdl".
  std::string_view target = request.target;
  target.remove_suffix(5);  // "?wsdl"
  if (size_t slash = target.rfind('/'); slash != std::string_view::npos) {
    target = target.substr(slash + 1);
  }
  std::string service(target);
  auto operations = registry_.operation_names(service);
  if (operations.empty()) {
    return http::Response::make(
        404, "Not Found", "no service '" + service + "' in this container");
  }
  auto description = soap::describe_service(
      service, operations,
      "http://" + endpoint().to_string() + "/" + service);
  if (!description.ok()) {
    return http::Response::make(500, "Internal Server Error",
                                description.error().to_string());
  }
  return http::Response::make(200, "OK",
                              soap::generate_wsdl(description.value()),
                              "text/xml");
}

SpiServer::Stats SpiServer::stats() const {
  Stats s;
  s.dispatcher = dispatcher_.stats();
  s.assembler = assembler_.stats();
  s.http_requests = http_server_ ? http_server_->requests_served() : 0;
  s.application_tasks =
      application_pool_ ? application_pool_->completed_tasks() : 0;
  s.admission_rejections = admission_rejections_->value();
  s.deadline_shed_pre_parse =
      deadline_shed_pre_parse_.load(std::memory_order_relaxed);
  s.adaptive_shed = static_cast<std::uint64_t>(shed_adaptive_->value());
  for (const auto& [limit, counter] : limit_counters_) {
    s.limit_rejections += static_cast<std::uint64_t>(counter->value());
  }
  return s;
}

}  // namespace spi::core
