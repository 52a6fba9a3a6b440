#include "proxy/proxy.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "concurrency/wait_group.hpp"
#include "http/parser.hpp"
#include "soap/envelope.hpp"
#include "telemetry/trace.hpp"

namespace spi::proxy {

namespace {

std::string format_retry_after(Duration value) {
  double seconds =
      std::chrono::duration<double>(std::max(value, Duration::zero())).count();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", seconds);
  return buffer;
}

/// "Nothing executed, come back later": the error a backend's admission
/// control produces when it sheds a sub-pack (503 fault body) or drains.
bool shed_cause(ErrorCode code) {
  return code == ErrorCode::kCapacityExceeded || code == ErrorCode::kShutdown;
}

http::Response fault_response(const Error& error, int status) {
  return http::Response::make(
      status, http::default_reason(status),
      soap::build_envelope(soap::Fault::from_error(error).to_xml()),
      "text/xml");
}

bool outcome_shed(const core::wire::RelayedOutcome& outcome) {
  if (outcome.ok()) return false;
  if (shed_cause(outcome.error().code())) return true;
  return outcome.error().code() == ErrorCode::kFault &&
         shed_cause(resilience::fault_cause(outcome.error()));
}

}  // namespace

PackingProxy::PackingProxy(net::Transport& transport, net::Endpoint at,
                           ProxyOptions options)
    : transport_(transport),
      options_(std::move(options)),
      owned_metrics_(options_.metrics
                         ? nullptr
                         : std::make_unique<telemetry::MetricsRegistry>()),
      metrics_(options_.metrics ? options_.metrics : owned_metrics_.get()),
      codecs_(options_.codecs ? options_.codecs
                              : &codec::CodecRegistry::builtin()),
      breakers_(options_.breaker),
      dispatcher_(nullptr, {}),
      assembler_(nullptr, {}),
      retry_after_value_(format_retry_after(options_.retry_after_hint)),
      ring_(options_.virtual_nodes) {
  dispatcher_.set_limits(options_.parse_limits, options_.envelope_limits);

  telemetry::MetricsRegistry& reg = *metrics_;
  codec_fallbacks_ = &reg.counter(
      "spi_codec_fallbacks_total",
      "Accept-Encoding advertisements that matched no registered codec "
      "(response fell back to identity)");
  for (const std::string& name : codecs_->names()) {
    codec_negotiations_.emplace(
        name, &reg.counter("spi_codec_negotiations_total",
                           "Response codec negotiations by chosen codec",
                           "codec=\"" + name + "\""));
  }
  fanout_width_ = &reg.histogram(
      "spi_proxy_fanout_width", "Calls carried per proxied message", {},
      telemetry::HistogramUnit::kNone);
  subpacks_per_request_ = &reg.histogram(
      "spi_proxy_subpacks_per_request",
      "Per-backend sub-packs a proxied message scattered into", {},
      telemetry::HistogramUnit::kNone);

  struct CounterView {
    const char* name;
    const char* help;
    const std::atomic<std::uint64_t>* value;
  };
  const CounterView views[] = {
      {"spi_proxy_requests_total", "POST messages the proxy handled",
       &requests_},
      {"spi_proxy_scattered_subpacks_total",
       "Per-backend sub-packs sent downstream", &scattered_subpacks_},
      {"spi_proxy_reroutes_total",
       "Sub-packs re-packed onto surviving ring members", &reroutes_},
      {"spi_proxy_rerouted_calls_total",
       "Sub-calls answered by a survivor after their owner failed",
       &rerouted_calls_},
      {"spi_proxy_all_backend_sheds_total",
       "Messages answered 503 because every backend shed", &all_backend_sheds_},
      {"spi_proxy_deadline_shed_total",
       "Messages shed at the proxy because their deadline had passed",
       &deadline_shed_},
      {"spi_proxy_local_sheds_total",
       "Sub-packs shed at the proxy by a backend's adaptive limiter",
       &local_sheds_},
      {"spi_proxy_rebalanced_calls_total",
       "Sub-calls moved between a pair of sub-packs by K=2 balancing",
       &rebalanced_calls_},
  };
  for (const CounterView& view : views) {
    reg.add_callback(view.name, view.help, telemetry::CallbackKind::kCounter,
                     {}, [value = view.value]() -> double {
                       return static_cast<double>(
                           value->load(std::memory_order_relaxed));
                     });
  }
  dispatcher_.bind_metrics(reg, "proxy");
  assembler_.bind_metrics(reg, "proxy");
  telemetry::bind_buffer_pool_metrics(reg);

  // Async scatter runtime: one reactor loop thread drives EVERY sub-pack
  // to every backend (DESIGN.md §16). Built before the fleet so
  // make_backend can hand the shared client to each backend SpiClient.
  if (transport_.supports_nonblocking_connect()) {
    Reactor::Options reactor_options;
    reactor_options.name = "spi-proxy-scatter";
    async_reactor_ = std::make_unique<Reactor>(reactor_options);
    http::AsyncClientOptions async_options;
    async_options.max_connections_per_endpoint =
        options_.max_pooled_connections_per_backend;
    async_options.limits = options_.http_limits;
    async_http_ = std::make_unique<http::AsyncHttpClient>(
        *async_reactor_, transport_, async_options);
    async_http_->bind_metrics(reg);
  }

  for (const net::Endpoint& backend : options_.backends) add_backend(backend);
  breakers_.bind_metrics(reg);

  // The pool only exists on the blocking fallback path; async scatter
  // costs zero dedicated threads per sub-pack.
  if (!async_http_) {
    scatter_pool_ = std::make_unique<ThreadPool>(
        std::max<size_t>(1, options_.scatter_threads), "spi-proxy-scatter");
  }

  http::ServerOptions http_options;
  http_options.protocol_threads = options_.protocol_threads;
  http_options.reactor_threads = options_.reactor_threads;
  http_options.limits = options_.http_limits;
  http_server_ = std::make_unique<http::HttpServer>(
      transport, std::move(at),
      [this](http::Request&& request) { return handle(std::move(request)); },
      http_options);
}

PackingProxy::~PackingProxy() { stop(); }

Status PackingProxy::start() {
  if (async_reactor_ && !async_reactor_->running()) async_reactor_->start();
  return http_server_->start();
}

void PackingProxy::stop() {
  // Handler threads are the only scatter submitters: stop them first, then
  // the pool/reactor drain and shut down with nothing left to race (every
  // handler waited out its own fan-out before returning).
  http_server_->stop();
  if (scatter_pool_) scatter_pool_->shutdown();
  if (async_reactor_) async_reactor_->stop();
}

net::Endpoint PackingProxy::endpoint() const {
  return http_server_->endpoint();
}

std::unique_ptr<PackingProxy::Backend> PackingProxy::make_backend(
    const net::Endpoint& endpoint) {
  auto backend = std::make_unique<Backend>();
  backend->endpoint = endpoint;

  core::ClientOptions client_options;
  client_options.keep_alive = true;  // pooled connections stay warm
  client_options.target = options_.target;
  client_options.receive_timeout = options_.receive_timeout;
  client_options.retry = options_.backend_retry;
  client_options.breakers = &breakers_;
  client_options.trace_propagation = true;
  client_options.http_limits = options_.http_limits;
  client_options.request_codec = options_.backend_request_codec;
  client_options.accept_codecs = options_.backend_accept_codecs;
  client_options.codecs = codecs_;
  client_options.async_client = async_http_.get();  // null on fallback path
  backend->client = std::make_unique<core::SpiClient>(
      transport_, endpoint, std::move(client_options));
  // Materialize the endpoint's breaker now: the ctor's bind_metrics pass
  // only sees breakers that already exist.
  breakers_.for_endpoint(endpoint);
  if (options_.adaptive_limit) {
    backend->limiter =
        std::make_unique<AdaptiveLimiter>(*options_.adaptive_limit);
  }

  const std::string label = "backend=\"" + endpoint.to_string() + "\"";
  Backend* raw = backend.get();
  metrics_->add_callback("spi_proxy_backend_subpacks_total",
                         "Sub-packs sent to this backend",
                         telemetry::CallbackKind::kCounter, label,
                         [raw]() -> double {
                           return static_cast<double>(
                               raw->subpacks.load(std::memory_order_relaxed));
                         });
  metrics_->add_callback("spi_proxy_backend_calls_total",
                         "Sub-calls routed to this backend",
                         telemetry::CallbackKind::kCounter, label,
                         [raw]() -> double {
                           return static_cast<double>(
                               raw->calls.load(std::memory_order_relaxed));
                         });
  metrics_->add_callback("spi_proxy_backend_faults_total",
                         "Sub-calls this backend answered with a fault (or "
                         "failed at the message level)",
                         telemetry::CallbackKind::kCounter, label,
                         [raw]() -> double {
                           return static_cast<double>(
                               raw->faults.load(std::memory_order_relaxed));
                         });
  return backend;
}

void PackingProxy::add_backend(const net::Endpoint& backend) {
  std::unique_lock lock(fleet_mutex_);
  if (fleet_.contains(backend)) return;
  fleet_.emplace(backend, make_backend(backend));
  ring_.add(backend);
  index_members();
}

void PackingProxy::remove_backend(const net::Endpoint& backend) {
  std::unique_lock lock(fleet_mutex_);
  auto found = fleet_.find(backend);
  if (found == fleet_.end()) return;
  std::unique_ptr<Backend> retired = std::move(found->second);
  fleet_.erase(found);
  ring_.remove(backend);
  index_members();
  {
    // Close its warm connections; in-flight sub-packs finish (or fault)
    // on the connections they already hold.
    std::lock_guard pool_lock(retired->pool_mutex);
    retired->idle.clear();
  }
  retired_.push_back(std::move(retired));
}

void PackingProxy::index_members() {
  by_member_.clear();
  for (const net::Endpoint& member : ring_.members()) {
    by_member_.push_back(fleet_.at(member).get());
  }
}

std::vector<net::Endpoint> PackingProxy::backends() const {
  std::shared_lock lock(fleet_mutex_);
  return ring_.members();
}

std::string PackingProxy::route_key(const core::ServiceCall& call) const {
  if (!options_.shard_param.empty()) {
    for (const auto& [name, value] : call.params) {
      if (name == options_.shard_param && value.is_string()) {
        return std::string(value.as_string());
      }
    }
  }
  // Operation affinity: every GetWeather lands on one backend, which is
  // what makes backend-local caches and specialization possible.
  return call.service + "/" + call.operation;
}

std::unique_ptr<http::HttpClient> PackingProxy::checkout_connection(
    Backend& backend) {
  {
    std::lock_guard lock(backend.pool_mutex);
    if (!backend.idle.empty()) {
      auto http = std::move(backend.idle.back());
      backend.idle.pop_back();
      return http;
    }
  }
  http::ClientOptions options;
  options.keep_alive = true;
  options.limits = options_.http_limits;
  return std::make_unique<http::HttpClient>(transport_, backend.endpoint,
                                            options);
}

void PackingProxy::checkin_connection(Backend& backend,
                                      std::unique_ptr<http::HttpClient> http) {
  std::lock_guard lock(backend.pool_mutex);
  if (backend.idle.size() < options_.max_pooled_connections_per_backend) {
    backend.idle.push_back(std::move(http));
  }
}

const codec::WireCodec& PackingProxy::negotiate_response_codec(
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

std::string PackingProxy::encode_response(const codec::WireCodec& codec,
                                          std::string plain,
                                          std::string* applied) {
  applied->clear();
  if (codec.name() == "identity") return plain;
  auto encoded = codec.encode(plain);
  // Encode failure falls back to identity text, same rule as the server:
  // compression is an optimization, never a reason to fault a message.
  if (!encoded.ok()) return plain;
  *applied = std::string(codec.name());
  return std::move(encoded).value();
}

bool PackingProxy::open_group(Group& group,
                              const resilience::Deadline& deadline) {
  Backend& backend = *group.backend;
  backend.subpacks.fetch_add(1, std::memory_order_relaxed);
  backend.calls.fetch_add(group.calls.size(), std::memory_order_relaxed);
  scattered_subpacks_.fetch_add(1, std::memory_order_relaxed);

  if (deadline.expired(RealClock::instance().now())) {
    group.result = Error(ErrorCode::kDeadlineExceeded,
                         "deadline expired before scatter to " +
                             backend.endpoint.to_string());
    backend.faults.fetch_add(group.calls.size(), std::memory_order_relaxed);
    return false;
  }
  if (backend.limiter && !backend.limiter->try_acquire()) {
    // Shed locally instead of piling onto a backend already past its
    // learned limit; the reroute pass may still land these calls on a
    // sibling with headroom.
    local_sheds_.fetch_add(1, std::memory_order_relaxed);
    group.shed = true;
    group.result =
        Error(ErrorCode::kCapacityExceeded,
              "proxy shed sub-pack at " + backend.endpoint.to_string() +
                  "'s adaptive concurrency limit");
    backend.faults.fetch_add(group.calls.size(), std::memory_order_relaxed);
    return false;
  }
  group.sent = std::chrono::steady_clock::now();
  return true;
}

void PackingProxy::close_group(Group& group,
                               core::SpiClient::RelayedResult result,
                               Duration retry_after) {
  if (AdaptiveLimiter* limiter = group.backend->limiter.get()) {
    limiter->release(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - group.sent)
                         .count());
  }
  group.retry_after = retry_after;
  settle_group(group, std::move(result));
}

void PackingProxy::scatter_group(Group& group,
                                 const resilience::Deadline& deadline,
                                 const telemetry::TraceContext& trace,
                                 core::PackMode mode) {
  // Thread-locals do not cross the scatter pool: re-install the message's
  // deadline and trace inside the leg, so the sub-pack the backend client
  // assembles carries the REMAINING budget and a child of the origin
  // trace (same trace id on every sibling sub-pack).
  resilience::DeadlineScope deadline_scope(deadline);
  telemetry::TraceScope trace_scope(trace);
  if (!open_group(group, deadline)) return;

  Backend& backend = *group.backend;
  std::unique_ptr<http::HttpClient> http = checkout_connection(backend);
  Duration retry_after = Duration::zero();
  auto result = backend.client->execute_packed_on(*http, group.calls, mode,
                                                  &retry_after);
  // Message-level success leaves the connection at a message boundary,
  // safe to reuse; after a failure it may hold half a response — drop it
  // (checkout will dial fresh next time).
  const bool reusable = result.ok();
  close_group(group, std::move(result), retry_after);
  if (reusable) checkin_connection(backend, std::move(http));
}

void PackingProxy::settle_group(Group& group,
                                core::SpiClient::RelayedResult result) {
  Backend& backend = *group.backend;
  if (result.ok()) {
    size_t faults = 0;
    bool all_shed = !result.value().outcomes.empty();
    for (const core::wire::RelayedOutcome& outcome : result.value().outcomes) {
      if (!outcome.ok()) ++faults;
      if (!outcome_shed(outcome)) all_shed = false;
    }
    backend.faults.fetch_add(faults, std::memory_order_relaxed);
    group.shed = all_shed;
  } else {
    group.shed = shed_cause(result.error().code());
    backend.faults.fetch_add(group.calls.size(), std::memory_order_relaxed);
  }
  group.result = std::move(result);
}

void PackingProxy::scatter_all_async(std::vector<Group>& groups,
                                     const resilience::Deadline& deadline,
                                     const telemetry::TraceContext& trace,
                                     core::PackMode mode) {
  // The async exchange captures the ambient deadline/trace at SUBMIT time
  // on this thread, so one pair of scopes covers the whole fan-out; the
  // sub-pack each backend client assembles (on the loop thread) carries
  // the remaining budget and a child of the origin trace.
  resilience::DeadlineScope deadline_scope(deadline);
  telemetry::TraceScope trace_scope(trace);

  WaitGroup pending;
  for (Group& group : groups) {
    if (!open_group(group, deadline)) continue;
    pending.add();
    Group* g = &group;
    // The completion runs on the reactor loop thread; it only classifies
    // the result and releases the latch — never blocks. The calls view
    // the origin body, which outlives the latch.
    g->backend->client->execute_packed_async(
        std::span<const core::wire::CallView>(g->calls), mode,
        [g, &pending](core::SpiClient::RelayedResult result,
                      Duration retry_after) {
          close_group(*g, std::move(result), retry_after);
          pending.done();
        });
  }
  // The handler thread blocks ONCE for its whole fan-out instead of
  // tying up one scatter thread per sub-pack.
  pending.wait();
}

void PackingProxy::rebalance_two_groups(std::vector<Group>& groups) {
  const size_t round = options_.rebalance_handler_round;
  if (round == 0 || groups.size() != 2) return;
  const bool first_larger = groups[0].calls.size() >= groups[1].calls.size();
  Group& larger = first_larger ? groups[0] : groups[1];
  Group& smaller = first_larger ? groups[1] : groups[0];

  // A backend's application pool executes a sub-pack in rounds of `round`
  // calls, so the pair's latency is max(rounds(a), rounds(b)). The best
  // achievable maximum is rounds(ceil(total/2)); when the larger group
  // exceeds it, move just enough TAIL calls onto the less-loaded sibling
  // to reach it — never more, shard affinity is worth keeping.
  auto rounds = [round](size_t n) { return (n + round - 1) / round; };
  const size_t total = larger.calls.size() + smaller.calls.size();
  const size_t best = rounds((total + 1) / 2);
  if (rounds(larger.calls.size()) <= best) return;

  const size_t cap = best * round;  // larger's new size, rounds(cap) == best
  const size_t move = larger.calls.size() - cap;
  for (size_t i = cap; i < larger.calls.size(); ++i) {
    smaller.slots.push_back(larger.slots[i]);
    smaller.calls.push_back(std::move(larger.calls[i]));
  }
  larger.slots.resize(cap);
  larger.calls.resize(cap);
  rebalanced_calls_.fetch_add(move, std::memory_order_relaxed);
}

void PackingProxy::scatter_all(std::vector<Group>& groups,
                               const resilience::Deadline& deadline,
                               const telemetry::TraceContext& trace,
                               core::PackMode mode) {
  if (groups.empty()) return;
  if (async_http_) {
    scatter_all_async(groups, deadline, trace, mode);
    return;
  }
  WaitGroup pending;
  for (size_t i = 0; i + 1 < groups.size(); ++i) {
    Group* group = &groups[i];
    pending.add();
    const bool queued = scatter_pool_->try_submit(
        [this, group, &deadline, &trace, mode, &pending] {
          scatter_group(*group, deadline, trace, mode);
          pending.done();
        });
    if (!queued) {
      // Pool saturated (or shutting down): run on the handler thread.
      // Slower, but a full pool can never deadlock a message whose own
      // handler is part of the fan-out.
      scatter_group(*group, deadline, trace, mode);
      pending.done();
    }
  }
  // The last group always runs inline: the handler thread contributes a
  // worker instead of sleeping, so K groups need only K-1 pool slots.
  scatter_group(groups.back(), deadline, trace, mode);
  pending.wait();
}

void PackingProxy::reroute_failures(
    std::vector<Group>& groups, std::vector<core::wire::RelayedOutcome>& outcomes,
    std::vector<Group>& regroups, const resilience::Deadline& deadline,
    const telemetry::TraceContext& trace, core::PackMode mode) {
  std::set<net::Endpoint> failed;
  for (const Group& group : groups) {
    if (group.shed || !group.result.ok()) {
      failed.insert(group.backend->endpoint);
    }
  }
  if (failed.empty()) return;
  if (deadline.expired(RealClock::instance().now())) return;

  const auto& idempotent = options_.backend_retry.idempotent;
  auto reroutable = [&](const Error& error, const core::wire::CallView& call) {
    // A breaker fast-fail refused the sub-pack before a byte was written
    // (the breaker for a dead backend stays open long after the first
    // connect failure): safe to move, same as connect-refused.
    if (error.code() == ErrorCode::kUnavailable) return true;
    switch (resilience::classify(error)) {
      case resilience::FaultClass::kRetryableBeforeWrite:
      case resilience::FaultClass::kRetryableNotExecuted:
        return true;  // guaranteed not executed: safe on any operation
      case resilience::FaultClass::kRetryableIfIdempotent:
        // The owner may have executed the call before failing; moving it
        // to a survivor risks double execution unless the deployment
        // declared the operation idempotent.
        return idempotent && idempotent(call.service, call.operation);
      case resilience::FaultClass::kTerminal:
        return false;
    }
    return false;
  };

  // Collect every movable sub-call, re-packed per surviving owner.
  {
    std::shared_lock lock(fleet_mutex_);
    for (Group& group : groups) {
      for (size_t k = 0; k < group.calls.size(); ++k) {
        const core::wire::RelayedOutcome& current = outcomes[group.slots[k]];
        if (current.ok() || !reroutable(current.error(), group.calls[k])) {
          continue;
        }
        auto owner = ring_.route_excluding(group.calls[k].route_key, failed);
        if (!owner) continue;  // no survivor: the fault stands
        auto found = fleet_.find(*owner);
        if (found == fleet_.end()) continue;
        Backend* target = found->second.get();
        auto regroup = std::find_if(
            regroups.begin(), regroups.end(),
            [target](const Group& g) { return g.backend == target; });
        if (regroup == regroups.end()) {
          regroup = regroups.insert(regroups.end(), Group{});
          regroup->backend = target;
        }
        regroup->slots.push_back(group.slots[k]);
        regroup->calls.push_back(group.calls[k]);
      }
    }
  }
  if (regroups.empty()) return;

  reroutes_.fetch_add(regroups.size(), std::memory_order_relaxed);
  scatter_all(regroups, deadline, trace, mode);

  for (Group& regroup : regroups) {
    if (!regroup.result.ok()) continue;  // original faults stand
    for (size_t k = 0; k < regroup.slots.size(); ++k) {
      // Take the survivor's answer whether value or fault: it EXECUTED
      // (or authoritatively refused), which beats the dead owner's
      // transport error.
      outcomes[regroup.slots[k]] =
          std::move(regroup.result.value().outcomes[k]);
      rerouted_calls_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

http::Response PackingProxy::handle_metrics() {
  return http::Response::make(200, "OK", metrics_->expose(),
                              "text/plain; version=0.0.4");
}

http::Response PackingProxy::handle_healthz() {
  Stats s = stats();
  size_t fleet_size;
  {
    std::shared_lock lock(fleet_mutex_);
    fleet_size = fleet_.size();
  }
  std::string body = "{\"status\":\"";
  body += fleet_size == 0 ? "no-backends" : "ok";
  body += "\",\"backends\":";
  body += std::to_string(fleet_size);
  body += ",\"requests\":";
  body += std::to_string(s.requests);
  body += ",\"scattered_subpacks\":";
  body += std::to_string(s.scattered_subpacks);
  body += ",\"reroutes\":";
  body += std::to_string(s.reroutes);
  body += "}";
  const int status = fleet_size == 0 ? 503 : 200;
  return http::Response::make(status, http::default_reason(status),
                              std::move(body), "application/json");
}

http::Response PackingProxy::handle(http::Request&& request) {
  if (request.method == "GET") {
    if (request.target == "/metrics") return handle_metrics();
    if (request.target == "/healthz") return handle_healthz();
  }
  if (request.method != "POST") {
    return http::Response::make(405, "Method Not Allowed",
                                "SOAP endpoint accepts POST only");
  }

  auto respond_shed = [](const Error& error, const std::string& hint) {
    http::Response response = fault_response(error, 503);
    response.headers.set("Retry-After", hint);
    return response;
  };

  requests_.fetch_add(1, std::memory_order_relaxed);

  // --- client->proxy hop decode (DESIGN.md §14, independent per hop) ------
  // A coded body (deflate, bxml) is decoded to text here, at the edge, as
  // every hop does, so one view path routes every codec.
  const codec::WireCodec* request_codec = &codec::identity_codec();
  if (auto coding = request.headers.get("Content-Encoding")) {
    const codec::WireCodec* found = codecs_->find(*coding);
    if (!found) {
      return fault_response(
          Error(ErrorCode::kInvalidArgument,
                "unsupported Content-Encoding: " + std::string(*coding)),
          415);
    }
    request_codec = found;
  }
  std::string text;
  if (request_codec->name() == "identity") {
    text = std::move(request.body);
  } else {
    auto plain = request_codec->decode(request.body,
                                       options_.http_limits.max_body_bytes,
                                       options_.parse_limits);
    if (!plain.ok()) {
      return fault_response(plain.wrap_error("decode request"), 400);
    }
    text = std::move(plain).value();
  }
  auto reject = [&](const Error& error) {
    SPI_LOG(kDebug, "spi.proxy") << "rejecting request: " << error.to_string();
    return fault_response(error, 400);
  };
  auto viewed = dispatcher_.view_request(text, options_.shard_param);
  if (!viewed.ok()) return reject(viewed.error());
  core::wire::PackView& message = viewed.value();
  // A plan takes the DOM path: it rides whole to one backend anyway.
  std::optional<core::wire::ParsedRequest> plan;
  if (message.kind == core::wire::ParsedRequest::Kind::kPlan) {
    auto parsed = dispatcher_.parse_request(std::move(text));
    if (!parsed.ok()) return reject(parsed.error());
    plan.emplace(std::move(parsed).value());
    message.trace = plan->trace;
    message.deadline = plan->deadline;
  }
  fanout_width_->observe(
      static_cast<double>(plan ? plan->call_count() : message.calls.size()));

  // Response codec for the client hop, negotiated per request from the
  // ORIGIN client's Accept-Encoding — completely independent of what the
  // backend hop speaks.
  const codec::WireCodec& response_codec = negotiate_response_codec(request);

  // The deadline was re-anchored to this host at parse time; if the origin
  // budget is already spent, shed without touching a backend.
  if (message.deadline.expired(RealClock::instance().now())) {
    deadline_shed_.fetch_add(1, std::memory_order_relaxed);
    return fault_response(Error(ErrorCode::kDeadlineExceeded,
                               "deadline expired at the proxy hop"),
                         504);
  }

  // Origin trace: echoed in the merged response (scope on this thread)
  // and continued as a child on every sub-pack. A trace-less origin still
  // gets ONE generated context so its sub-packs correlate with each other.
  std::optional<telemetry::TraceScope> trace_scope;
  if (message.trace.valid()) trace_scope.emplace(message.trace);
  const telemetry::TraceContext forward_trace =
      message.trace.valid() ? message.trace
                            : telemetry::TraceContext::generate();

  if (plan) return forward_plan(*plan, forward_trace, response_codec);

  // --- group sub-calls by ring owner ------------------------------------
  std::vector<Group> groups;
  {
    std::shared_lock lock(fleet_mutex_);
    if (fleet_.empty()) {
      return respond_shed(
          Error(ErrorCode::kUnavailable, "no backends in the ring"),
          retry_after_value_);
    }
    for (size_t slot = 0; slot < message.calls.size(); ++slot) {
      const core::wire::CallView& call = message.calls[slot];
      Backend* backend = by_member_[*ring_.route_index(call.route_key)];
      auto group = std::find_if(
          groups.begin(), groups.end(),
          [backend](const Group& g) { return g.backend == backend; });
      if (group == groups.end()) {
        group = groups.insert(groups.end(), Group{});
        group->backend = backend;
        group->slots.reserve(message.calls.size());
        group->calls.reserve(message.calls.size());
      }
      group->slots.push_back(slot);
      group->calls.push_back(call);
    }
  }
  subpacks_per_request_->observe(static_cast<double>(groups.size()));
  rebalance_two_groups(groups);

  // Sub-packs keep packed framing when the origin was packed (kAuto lets a
  // one-call group ride traditional framing); a traditional origin stays
  // traditional end to end.
  const core::PackMode mode =
      message.packed ? core::PackMode::kAuto : core::PackMode::kSingle;

  scatter_all(groups, message.deadline, forward_trace, mode);

  // --- all-shed: relay the fleet's LARGEST Retry-After ------------------
  // Every backend said "not now". The origin client should come back when
  // the whole fleet has headroom again, which is governed by the slowest
  // member — so the hints merge by MAX, not first-wins. The fault names
  // the backends' shed cause when they all gave the same one (a draining
  // backend's Shutdown, as a direct client would read it), and
  // CapacityExceeded when they differ.
  bool all_shed = true;
  Duration max_hint = Duration::zero();
  for (const Group& group : groups) {
    if (!group.shed) all_shed = false;
    max_hint = std::max(max_hint, group.retry_after);
  }
  if (all_shed && !groups.empty()) {
    all_backend_sheds_.fetch_add(1, std::memory_order_relaxed);
    std::optional<ErrorCode> cause;
    auto note = [&cause](const Error& shed) {
      const ErrorCode code = resilience::fault_cause(shed);
      cause = !cause || *cause == code ? code : ErrorCode::kCapacityExceeded;
    };
    for (const Group& group : groups) {
      if (!group.result.ok()) {
        note(group.result.error());
        continue;
      }
      for (const core::wire::RelayedOutcome& outcome :
           group.result.value().outcomes) {
        note(outcome.error());
      }
    }
    const std::string hint = max_hint > Duration::zero()
                                 ? format_retry_after(max_hint)
                                 : retry_after_value_;
    return respond_shed(Error(cause.value_or(ErrorCode::kCapacityExceeded),
                              "every backend shed this message"),
                        hint);
  }

  // --- merge, preserving original slots ---------------------------------
  // Every slot belongs to exactly one group, so each is overwritten below.
  std::vector<core::wire::RelayedOutcome> outcomes(
      message.calls.size(), core::wire::RelayedOutcome(std::string_view()));
  for (Group& group : groups) {
    if (group.result.ok()) {
      for (size_t k = 0; k < group.slots.size(); ++k) {
        outcomes[group.slots[k]] = std::move(group.result.value().outcomes[k]);
      }
    } else {
      // A message-level failure of one sub-pack becomes per-call faults on
      // exactly that backend's calls — never on its siblings' (partial
      // failure is per-call, the pack survives).
      for (size_t slot : group.slots) {
        outcomes[slot] = core::wire::RelayedOutcome(group.result.error());
      }
    }
  }

  std::vector<Group> regroups;  // holds the survivors' reply bytes
  if (options_.reroute_on_failure) {
    reroute_failures(groups, outcomes, regroups, message.deadline,
                     forward_trace, mode);
  }

  std::string content_encoding;
  std::string body = encode_response(
      response_codec,
      assembler_.assemble_response(outcomes, message.calls, message.packed),
      &content_encoding);

  // Per-call faults ride inside a 200 for packed messages; a traditional
  // single-call fault surfaces as HTTP 500 like classic SOAP stacks.
  int status = 200;
  if (!message.packed && !outcomes.front().ok()) status = 500;
  http::Response response = http::Response::make(
      status, http::default_reason(status), std::move(body), "text/xml");
  if (!content_encoding.empty()) {
    response.headers.set("Content-Encoding", content_encoding);
  }
  return response;
}

http::Response PackingProxy::forward_plan(
    const core::wire::ParsedRequest& plan,
    const telemetry::TraceContext& forward_trace,
    const codec::WireCodec& response_codec) {
  // A plan is a dependency chain (step N consumes step N-1's result);
  // split across backends it would need cross-backend result forwarding,
  // so it rides to ONE ring member keyed by its first step.
  Backend* backend = nullptr;
  {
    std::shared_lock lock(fleet_mutex_);
    std::string key = plan.plan.steps.empty()
                          ? std::string()
                          : plan.plan.steps.front().service + "/" +
                                plan.plan.steps.front().operation;
    if (auto owner = ring_.route_index(key)) backend = by_member_[*owner];
  }
  if (!backend) {
    http::Response response = fault_response(
        Error(ErrorCode::kUnavailable, "no backends in the ring"), 503);
    response.headers.set("Retry-After", retry_after_value_);
    return response;
  }
  resilience::DeadlineScope deadline_scope(plan.deadline);
  telemetry::TraceScope forward_scope(forward_trace);
  scattered_subpacks_.fetch_add(1, std::memory_order_relaxed);
  backend->subpacks.fetch_add(1, std::memory_order_relaxed);
  backend->calls.fetch_add(plan.plan.steps.size(), std::memory_order_relaxed);
  auto plan_result = backend->client->execute_plan(plan.plan);
  if (!plan_result.ok()) {
    backend->faults.fetch_add(plan.plan.steps.size(),
                              std::memory_order_relaxed);
    return fault_response(plan_result.error(), 500);
  }
  std::vector<core::IndexedOutcome> indexed;
  indexed.reserve(plan_result.value().size());
  for (size_t i = 0; i < plan_result.value().size(); ++i) {
    indexed.push_back(
        {static_cast<std::uint32_t>(i), std::move(plan_result.value()[i])});
  }
  static const core::ServiceCall kNoCall{};
  std::string content_encoding;
  std::string body =
      encode_response(response_codec,
                      assembler_.assemble_response(indexed, kNoCall, true)
                          .flatten(),
                      &content_encoding);
  http::Response response =
      http::Response::make(200, "OK", std::move(body), "text/xml");
  if (!content_encoding.empty()) {
    response.headers.set("Content-Encoding", content_encoding);
  }
  return response;
}

PackingProxy::Stats PackingProxy::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.scattered_subpacks = scattered_subpacks_.load(std::memory_order_relaxed);
  s.reroutes = reroutes_.load(std::memory_order_relaxed);
  s.rerouted_calls = rerouted_calls_.load(std::memory_order_relaxed);
  s.all_backend_sheds = all_backend_sheds_.load(std::memory_order_relaxed);
  s.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  s.local_sheds = local_sheds_.load(std::memory_order_relaxed);
  s.rebalanced_calls = rebalanced_calls_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace spi::proxy
