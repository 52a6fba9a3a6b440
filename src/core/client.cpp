#include "core/client.hpp"

#include <thread>

#include "common/logging.hpp"
#include "core/ladder.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {

namespace {

http::ClientOptions make_http_options(const ClientOptions& options) {
  http::ClientOptions http_options;
  http_options.keep_alive = options.keep_alive;
  http_options.limits = options.http_limits;
  http_options.receive_timeout = options.receive_timeout;
  return http_options;
}

std::vector<CallOutcome> replicate_error(const Error& error, size_t n) {
  std::vector<CallOutcome> outcomes;
  outcomes.reserve(n);
  for (size_t i = 0; i < n; ++i) outcomes.emplace_back(error);
  return outcomes;
}

}  // namespace

SpiClient::SpiClient(net::Transport& transport, net::Endpoint server,
                     ClientOptions options)
    : transport_(transport),
      server_(std::move(server)),
      options_(std::move(options)),
      wsse_factory_(options_.wsse
                        ? std::make_unique<soap::WsseTokenFactory>(
                              *options_.wsse, options_.wsse_nonce_seed)
                        : nullptr),
      assembler_(wsse_factory_.get(), options_.pack_cost),
      dispatcher_(nullptr, options_.pack_cost),
      retry_policy_(options_.retry),
      hedge_policy_(options_.hedge),
      http_(transport_, server_, make_http_options(options_)) {}

SpiClient::~SpiClient() {
  // Async leg callbacks reference this client; wait until every in-flight
  // exchange has completed (the async runtime's reactor must be running,
  // or its destruction must have failed them, before we are destroyed).
  std::unique_lock lock(async_mutex_);
  async_cv_.wait(lock, [this] {
    return async_inflight_.load(std::memory_order_acquire) == 0;
  });
}

const codec::CodecRegistry& SpiClient::codec_registry() const {
  return options_.codecs ? *options_.codecs : codec::CodecRegistry::builtin();
}

Result<Gathered> SpiClient::encode_request(Gathered envelope,
                                           http::Headers& headers) {
  if (!options_.accept_codecs.empty()) {
    std::string accept;
    for (const std::string& name : options_.accept_codecs) {
      if (!accept.empty()) accept += ", ";
      accept += name;
    }
    headers.set("Accept-Encoding", accept);
  }
  if (options_.request_codec.empty() || options_.request_codec == "identity") {
    return envelope;
  }
  const codec::WireCodec* codec = codec_registry().find(options_.request_codec);
  if (!codec) {
    return Error(ErrorCode::kInvalidArgument,
                 "unknown request codec: " + options_.request_codec);
  }
  auto encoded = codec->encode(std::move(envelope).flatten());
  if (!encoded.ok()) return encoded.wrap_error("encode request");
  headers.set("Content-Encoding", std::string(codec->name()));
  return Gathered(std::move(encoded).value());
}

Result<const codec::WireCodec*> SpiClient::response_codec(
    const http::Response& response) const {
  std::string_view coding = "identity";
  if (auto header = response.headers.get("Content-Encoding")) {
    coding = *header;
  }
  const codec::WireCodec* codec = codec_registry().find(coding);
  if (!codec) {
    return Error(ErrorCode::kProtocolError,
                 "response Content-Encoding \"" + std::string(coding) +
                     "\" not supported");
  }
  return codec;
}

Result<std::string> SpiClient::reply_text(http::Response& response) const {
  auto codec = response_codec(response);
  if (!codec.ok()) return codec.error();
  if (codec.value()->name() == "identity") return std::move(response.body);
  auto plain =
      codec.value()->decode(response.body, options_.http_limits.max_body_bytes,
                            dispatcher_.parse_limits());
  if (!plain.ok()) return plain.wrap_error("decode response");
  return plain;
}

Result<wire::ParsedResponse> SpiClient::parse_wire_response(
    http::Response response) {
  const size_t wire_bytes = response.body.size();
  auto text = reply_text(response);
  if (!text.ok()) return text.error();
  // The modeled stack would have handled the coded wire bytes, not the
  // expanded text: capture the parse charge and replay it at wire size.
  PackCostDeferral deferral;
  auto parsed = dispatcher_.parse_response(std::move(text).value());
  deferral.replay(wire_bytes);
  return parsed;
}

namespace {

/// A reply that did not parse: SOAP faults ride on 500 and packed per-call
/// faults on 200, so only a non-200 that is not even SOAP names its status.
Error unparsed_reply(int status, const Error& error) {
  if (status == 200) return error;
  return Error(ErrorCode::kProtocolError,
               "HTTP " + std::to_string(status) + ": " + error.message());
}

}  // namespace

Result<std::vector<CallOutcome>> SpiClient::read_reply(
    http::Response response, std::span<const ServiceCall> calls) {
  const int status = response.status;
  auto parsed = parse_wire_response(std::move(response));
  if (!parsed.ok()) return unparsed_reply(status, parsed.error());
  return dispatcher_.route(std::move(parsed).value(), calls.size());
}

SpiClient::RelayedResult SpiClient::read_reply(
    http::Response response, std::span<const wire::CallView> calls) {
  const int status = response.status;
  const size_t wire_bytes = response.body.size();
  auto text = reply_text(response);
  if (!text.ok()) return unparsed_reply(status, text.error());
  RelayedPack pack;
  pack.replies.push_back(
      std::make_unique<const std::string>(std::move(text).value()));
  PackCostDeferral deferral;
  auto view = dispatcher_.view_response(*pack.replies.back());
  deferral.replay(wire_bytes);
  if (!view.ok()) return unparsed_reply(status, view.error());
  auto routed = dispatcher_.route(std::move(view).value(), calls.size());
  if (!routed.ok()) return routed.error();
  pack.outcomes = std::move(routed).value();
  return pack;
}

template <class Call>
Result<SpiClient::Outcomes<Call>> SpiClient::drive_blocking(
    std::span<const Call> calls, PackMode mode, http::HttpClient& http,
    Duration* observed_retry_after) {
  using Step = typename Ladder<Call>::Step;
  Ladder<Call> ladder(*this, calls, mode);
  Step step = ladder.open_round();
  while (step != Step::kDone) {
    if (step == Step::kWait) {
      RealClock::instance().sleep_for(ladder.pause());
      step = ladder.open_round();
      continue;
    }
    // The blocking driver writes one flat string: the splices' one copy.
    http.set_receive_timeout(ladder.timeout());
    step = ladder.settle(http.send(std::move(ladder.request())));
  }
  if (observed_retry_after) *observed_retry_after = ladder.max_retry_after();
  return ladder.take_result();
}

CallOutcome SpiClient::call(const ServiceCall& service_call) {
  std::lock_guard lock(http_mutex_);
  auto outcomes = drive_blocking(std::span(&service_call, 1),
                                 PackMode::kSingle, http_);
  if (!outcomes.ok()) return outcomes.error();
  return std::move(outcomes.value().front());
}

CallOutcome SpiClient::call(std::string service, std::string operation,
                            soap::Struct params) {
  return call(make_call(std::move(service), std::move(operation),
                        std::move(params)));
}

std::vector<CallOutcome> SpiClient::call_serial(
    std::span<const ServiceCall> calls) {
  std::vector<CallOutcome> outcomes;
  outcomes.reserve(calls.size());
  std::lock_guard lock(http_mutex_);
  for (const ServiceCall& service_call : calls) {
    auto result = drive_blocking(std::span(&service_call, 1),
                                 PackMode::kSingle, http_);
    if (result.ok()) {
      outcomes.push_back(std::move(result.value().front()));
    } else {
      outcomes.emplace_back(result.error());
    }
  }
  return outcomes;
}

std::vector<CallOutcome> SpiClient::call_multithreaded(
    std::span<const ServiceCall> calls) {
  const size_t n = calls.size();
  std::vector<std::optional<CallOutcome>> slots(n);
  {
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([this, &calls, &slots, i] {
        // Each thread gets its own connection, like the paper's M client
        // threads each opening a socket to the service.
        http::HttpClient http(transport_, server_,
                              make_http_options(options_));
        auto result = drive_blocking(std::span(&calls[i], 1),
                                     PackMode::kSingle, http);
        if (result.ok()) {
          slots[i] = std::move(result.value().front());
        } else {
          slots[i] = CallOutcome(result.error());
        }
      });
    }
  }  // jthreads join here
  std::vector<CallOutcome> outcomes;
  outcomes.reserve(n);
  for (auto& slot : slots) {
    outcomes.push_back(std::move(slot).value_or(
        CallOutcome(Error(ErrorCode::kInternal, "worker produced no result"))));
  }
  return outcomes;
}

Result<std::vector<CallOutcome>> SpiClient::execute_packed(
    std::span<const ServiceCall> calls, PackMode mode) {
  if (calls.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty call batch");
  }
  if (options_.async_client) {
    // Thin wrapper: the reactor drives the exchange; this thread only
    // waits on the completion future (never call from the loop thread).
    return execute_packed_future(
               std::vector<ServiceCall>(calls.begin(), calls.end()), mode)
        .get();
  }
  // A packed transfer is one message on one fresh connection.
  http::HttpClient http(transport_, server_, make_http_options(options_));
  return drive_blocking(calls, mode, http);
}

SpiClient::RelayedResult SpiClient::execute_packed_on(
    http::HttpClient& http, std::span<const wire::CallView> calls,
    PackMode mode, Duration* retry_after) {
  if (calls.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty call batch");
  }
  return drive_blocking(calls, mode, http, retry_after);
}

Result<std::vector<CallOutcome>> SpiClient::execute_plan(
    const RemotePlan& plan) {
  if (Status valid = plan.validate(); !valid.ok()) {
    return valid.error();
  }
  telemetry::TraceContext trace;
  if (options_.trace_propagation) {
    // Continue the caller's ambient trace as a child (a proxy forwarding a
    // plan keeps the origin trace id); start a fresh one otherwise.
    const telemetry::TraceContext* ambient = telemetry::current_trace();
    trace = (ambient && ambient->valid()) ? ambient->child()
                                          : telemetry::TraceContext::generate();
  }
  telemetry::TraceScope trace_scope(trace);

  http::HttpClient http(transport_, server_, make_http_options(options_));
  http::Headers headers;
  headers.set("SOAPAction", "\"\"");
  std::string body;
  {
    PackCostDeferral deferral;
    auto encoded =
        encode_request(Gathered(assembler_.assemble_plan(plan)), headers);
    if (!encoded.ok()) return encoded.wrap_error("spi plan");
    body = std::move(encoded).value().flatten();
    deferral.replay(body.size());
  }
  auto response =
      http.post(options_.target, std::move(body), "text/xml", &headers);
  if (!response.ok()) return response.wrap_error("spi plan");

  auto parsed = parse_wire_response(std::move(response).value());
  if (!parsed.ok()) return parsed.error();
  return dispatcher_.route(std::move(parsed).value(), plan.steps.size());
}

std::vector<CallOutcome> SpiClient::call_packed(
    std::span<const ServiceCall> calls, PackMode mode) {
  auto result = execute_packed(calls, mode);
  if (!result.ok()) {
    return replicate_error(result.error(), calls.size());
  }
  return std::move(result).value();
}

std::future<CallOutcome> SpiClient::Batch::add(ServiceCall call) {
  if (executed_) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "Batch::add after execute()");
  }
  calls_.push_back(std::move(call));
  promises_.emplace_back();
  return promises_.back().get_future();
}

std::future<CallOutcome> SpiClient::Batch::add(std::string service,
                                               std::string operation,
                                               soap::Struct params) {
  return add(make_call(std::move(service), std::move(operation),
                       std::move(params)));
}

void SpiClient::Batch::execute() {
  if (executed_) {
    throw SpiError(ErrorCode::kInvalidArgument, "Batch already executed");
  }
  executed_ = true;
  if (calls_.empty()) return;

  std::vector<CallOutcome> outcomes = client_.call_packed(calls_);
  // The client-side dispatcher has already routed outcomes into request
  // order; hand each to its caller's future.
  for (size_t i = 0; i < promises_.size(); ++i) {
    promises_[i].set_value(std::move(outcomes[i]));
  }
}

SpiClient::Stats SpiClient::stats() const {
  Stats s;
  s.assembler = assembler_.stats();
  s.dispatcher = dispatcher_.stats();
  s.retries = retry_policy_.retries_granted();
  s.partial_repacks = partial_repacks_.load(std::memory_order_relaxed);
  s.breaker_fast_fails = breaker_fast_fails_.load(std::memory_order_relaxed);
  s.retry_budget = retry_policy_.budget_level();
  s.async_inflight = async_inflight_.load(std::memory_order_relaxed);
  s.hedges_sent = hedges_sent_.load(std::memory_order_relaxed);
  s.hedges_won = hedges_won_.load(std::memory_order_relaxed);
  s.hedges_cancelled = hedges_cancelled_.load(std::memory_order_relaxed);
  return s;
}

void SpiClient::bind_metrics(telemetry::MetricsRegistry& registry,
                             std::string_view label) {
  std::string labels = "client=\"" + std::string(label) + "\"";
  registry.add_callback("spi_client_retries_total",
                        "Retries granted by the retry policy",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              retry_policy_.retries_granted());
                        });
  registry.add_callback("spi_client_retry_budget",
                        "Retry-budget tokens currently available",
                        telemetry::CallbackKind::kGauge, labels,
                        [this]() -> double {
                          return retry_policy_.budget_level();
                        });
  registry.add_callback(
      "spi_client_partial_repacks_total",
      "Packed messages re-sent carrying only failed sub-calls",
      telemetry::CallbackKind::kCounter, labels, [this]() -> double {
        return static_cast<double>(
            partial_repacks_.load(std::memory_order_relaxed));
      });
  registry.add_callback(
      "spi_client_breaker_fast_fails_total",
      "Exchanges refused fast by an open circuit breaker",
      telemetry::CallbackKind::kCounter, labels, [this]() -> double {
        return static_cast<double>(
            breaker_fast_fails_.load(std::memory_order_relaxed));
      });
  registry.add_callback("spi_client_inflight",
                        "Async packed exchanges accepted and not completed",
                        telemetry::CallbackKind::kGauge, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              async_inflight_.load(std::memory_order_relaxed));
                        });
  registry.add_callback("spi_hedges_sent_total",
                        "Hedge attempts fired at the latency-quantile trigger",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              hedges_sent_.load(std::memory_order_relaxed));
                        });
  registry.add_callback("spi_hedges_won_total",
                        "Exchanges where the hedge answered before the primary",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              hedges_won_.load(std::memory_order_relaxed));
                        });
  registry.add_callback("spi_hedges_cancelled_total",
                        "Hedge legs cancelled after the primary won",
                        telemetry::CallbackKind::kCounter, labels,
                        [this]() -> double {
                          return static_cast<double>(
                              hedges_cancelled_.load(std::memory_order_relaxed));
                        });
}

}  // namespace spi::core
