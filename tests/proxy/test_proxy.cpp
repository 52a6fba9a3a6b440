// End-to-end packing proxy (DESIGN.md §15): scatter/gather of packed
// envelopes across a backend fleet with call-id-correct merges, trace and
// deadline propagation across the hop, per-hop codec negotiation, max
// Retry-After relay on all-backend shed, runtime ring membership, and the
// backend-kill chaos cells CI runs under ASan (ProxyChaosTest.*).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "codec/bxml.hpp"
#include "core/assembler.hpp"
#include "core/call_context.hpp"
#include "core/client.hpp"
#include "core/dispatcher.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "core/remote_plan.hpp"
#include "core/server.hpp"
#include "http/client.hpp"
#include "http/message.hpp"
#include "http/server.hpp"
#include "net/sim_transport.hpp"
#include "proxy/hash_ring.hpp"
#include "proxy/proxy.hpp"
#include "services/echo.hpp"
#include "soap/envelope.hpp"
#include "telemetry/trace.hpp"

namespace spi::proxy {
namespace {

using core::CallOutcome;
using core::ServiceCall;
using soap::Value;

class ProxyTest : public ::testing::Test {
 protected:
  struct BackendHost {
    std::string name;
    net::Endpoint endpoint;
    core::ServiceRegistry registry;
    std::unique_ptr<core::SpiServer> server;
  };

  /// What the ShardService handlers observed, for the propagation tests.
  struct Observation {
    std::string backend;
    std::string trace_id;
    bool deadline_valid = false;
    Duration deadline_remaining = Duration::zero();
  };

  /// Starts `count` more SpiServers, each also exposing ShardService/Where:
  /// an idempotent operation that records its CallContext and answers with
  /// the backend's own name — so the merged response REVEALS placement.
  void start_backends(int count, core::ServerOptions options = {}) {
    for (int i = 0; i < count; ++i) {
      auto host = std::make_unique<BackendHost>();
      host->name = "backend-" + std::to_string(backends_.size() + 1);
      host->endpoint = net::Endpoint{host->name, 80};
      services::register_echo_service(host->registry);
      core::ServiceBinder binder(host->registry, "ShardService");
      const std::string name = host->name;
      binder.bind_idempotent(
          "Where", [this, name](const soap::Struct&) -> Result<Value> {
            Observation seen;
            seen.backend = name;
            if (const core::CallContext* context =
                    core::current_call_context()) {
              seen.trace_id = context->trace.trace_id;
              seen.deadline_valid = context->deadline.valid();
              seen.deadline_remaining = context->deadline.remaining(
                  RealClock::instance().now());
            }
            std::lock_guard lock(observed_mutex_);
            observed_.push_back(std::move(seen));
            return Value(name);
          });
      host->server = std::make_unique<core::SpiServer>(
          transport_, host->endpoint, host->registry, options);
      ASSERT_TRUE(host->server->start().ok());
      backends_.push_back(std::move(host));
    }
  }

  /// Options preloaded with every started backend, sharding by the "key"
  /// parameter so one packed message spreads across the fleet.
  ProxyOptions fleet_options() {
    ProxyOptions options;
    for (const auto& backend : backends_) {
      options.backends.push_back(backend->endpoint);
    }
    options.shard_param = "key";
    return options;
  }

  void start_proxy(ProxyOptions options) {
    proxy_ = std::make_unique<PackingProxy>(
        transport_, net::Endpoint{"proxy", 80}, std::move(options));
    ASSERT_TRUE(proxy_->start().ok());
  }

  std::unique_ptr<core::SpiClient> make_client(
      core::ClientOptions options = {}) {
    return std::make_unique<core::SpiClient>(transport_, proxy_->endpoint(),
                                             std::move(options));
  }

  ServiceCall where(const std::string& key) {
    return core::make_call("ShardService", "Where", {{"key", Value(key)}});
  }

  std::vector<ServiceCall> where_calls(size_t count) {
    std::vector<ServiceCall> calls;
    calls.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      calls.push_back(where("key-" + std::to_string(i)));
    }
    return calls;
  }

  std::vector<net::Endpoint> member_endpoints() const {
    std::vector<net::Endpoint> endpoints;
    for (const auto& backend : backends_) {
      endpoints.push_back(backend->endpoint);
    }
    return endpoints;
  }

  /// The backend a call must land on: same pure function of (members,
  /// vnodes, key) the proxy's own ring computes.
  net::Endpoint expected_owner(const ServiceCall& call,
                               const std::vector<net::Endpoint>& members,
                               const std::set<net::Endpoint>& avoid = {}) {
    HashRing ring(64);
    for (const net::Endpoint& member : members) ring.add(member);
    auto owner = avoid.empty()
                     ? ring.route(proxy_->route_key(call))
                     : ring.route_excluding(proxy_->route_key(call), avoid);
    EXPECT_TRUE(owner.has_value());
    return owner.value_or(net::Endpoint{});
  }

  std::string name_of(const net::Endpoint& endpoint) const {
    for (const auto& backend : backends_) {
      if (backend->endpoint == endpoint) return backend->name;
    }
    return endpoint.to_string();
  }

  /// Raw POST at the proxy, bypassing SpiClient (expired deadlines and
  /// stub-fleet responses must reach the proxy unfiltered).
  http::Response raw_post(std::string body, const http::Headers* extra =
                                                nullptr) {
    http::HttpClient http(transport_, proxy_->endpoint(), {});
    auto response = http.post("/spi", std::move(body), "text/xml", extra);
    EXPECT_TRUE(response.ok()) << response.error().to_string();
    return response.ok() ? std::move(response).value() : http::Response{};
  }

  http::Response raw_get(const std::string& target) {
    http::HttpClient http(transport_, proxy_->endpoint(), {});
    http::Request request;
    request.method = "GET";
    request.target = target;
    auto response = http.send(std::move(request));
    EXPECT_TRUE(response.ok()) << response.error().to_string();
    return response.ok() ? std::move(response).value() : http::Response{};
  }

  std::vector<Observation> observations() {
    std::lock_guard lock(observed_mutex_);
    return observed_;
  }

  net::SimTransport transport_;
  std::vector<std::unique_ptr<BackendHost>> backends_;
  std::unique_ptr<PackingProxy> proxy_;  // after backends_: destroyed first
  std::mutex observed_mutex_;
  std::vector<Observation> observed_;
};

// --- scatter/gather core ----------------------------------------------------

TEST_F(ProxyTest, PackedScatterPreservesCallIdsAcrossBackends) {
  start_backends(3);
  start_proxy(fleet_options());
  auto client = make_client();

  auto calls = where_calls(12);
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());

  // Every outcome sits in its ORIGINAL slot and names exactly the backend
  // the ring assigns its key — the merge never crossed call ids.
  std::set<std::string> hit;
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i << ": "
                                  << outcomes[i].error().to_string();
    EXPECT_EQ(outcomes[i].value().as_string(),
              name_of(expected_owner(calls[i], member_endpoints())))
        << "call " << i;
    hit.insert(std::string(outcomes[i].value().as_string()));
  }
  EXPECT_GE(hit.size(), 2u) << "one pack must actually fan out";

  auto stats = proxy_->stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.scattered_subpacks, hit.size())
      << "one sub-pack per distinct owner";
  EXPECT_EQ(stats.reroutes, 0u);
}

TEST_F(ProxyTest, TraditionalSingleCallRoutesByOperationAffinity) {
  start_backends(3);
  ProxyOptions options = fleet_options();
  options.shard_param.clear();  // default affinity: "service/operation"
  start_proxy(std::move(options));
  auto client = make_client();

  auto first = client->call("ShardService", "Where", {});
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  auto second = client->call("ShardService", "Where", {});
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  // Affinity is sticky: the same operation always lands on the same
  // backend, and it is the one the ring names.
  EXPECT_EQ(first.value().as_string(), second.value().as_string());
  HashRing ring(64);
  for (const net::Endpoint& member : member_endpoints()) ring.add(member);
  EXPECT_EQ(first.value().as_string(),
            name_of(*ring.route("ShardService/Where")));
}

TEST_F(ProxyTest, PlanRoutesWholeToOneBackend) {
  start_backends(3);
  start_proxy(fleet_options());
  auto client = make_client();

  core::RemotePlan plan;
  plan.step("EchoService", "Echo", {core::PlanArg::value("data", Value("a"))})
      .step("EchoService", "Echo",
            {core::PlanArg::value("data", Value("b"))});
  auto outcomes = client->execute_plan(plan);
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  ASSERT_EQ(outcomes.value().size(), 2u);
  EXPECT_EQ(outcomes.value()[0].value().as_string(), "a");
  EXPECT_EQ(outcomes.value()[1].value().as_string(), "b");

  // A dependency chain cannot split: exactly ONE backend saw traffic.
  size_t backends_hit = 0;
  for (const auto& backend : backends_) {
    if (backend->server->stats().http_requests > 0) ++backends_hit;
  }
  EXPECT_EQ(backends_hit, 1u);
}

// --- header propagation across the hop (trace + deadline) -------------------

TEST_F(ProxyTest, OriginTraceIdIsContinuedOnEverySubPack) {
  start_backends(3);
  start_proxy(fleet_options());
  auto client = make_client();

  telemetry::TraceContext origin;
  origin.trace_id = std::string(32, 'a');
  origin.parent_id = std::string(16, 'b');
  telemetry::TraceScope scope(origin);

  auto calls = where_calls(12);
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  for (const CallOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }

  // Every handler on every backend executed under the ORIGIN trace id:
  // client -> proxy continued it, proxy -> backend continued it again.
  auto seen = observations();
  ASSERT_EQ(seen.size(), calls.size());
  std::set<std::string> backends_seen;
  for (const Observation& observation : seen) {
    EXPECT_EQ(observation.trace_id, origin.trace_id);
    backends_seen.insert(observation.backend);
  }
  EXPECT_GE(backends_seen.size(), 2u)
      << "the shared trace id must span multiple backends to mean anything";
}

TEST_F(ProxyTest, DeadlineBudgetShrinksAcrossTheHopButSurvivesIt) {
  start_backends(3);
  start_proxy(fleet_options());
  core::ClientOptions client_options;
  client_options.call_timeout = std::chrono::milliseconds(500);
  auto client = make_client(std::move(client_options));

  auto calls = where_calls(9);
  auto outcomes = client->call_packed(calls);
  for (const CallOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }

  // Each backend handler saw a VALID deadline whose remaining budget is
  // positive but strictly within the origin's 500ms — the proxy re-sent
  // the remaining budget, not the original, and not nothing.
  auto seen = observations();
  ASSERT_EQ(seen.size(), calls.size());
  for (const Observation& observation : seen) {
    EXPECT_TRUE(observation.deadline_valid)
        << observation.backend << " saw no deadline";
    EXPECT_GT(observation.deadline_remaining, Duration::zero());
    EXPECT_LE(observation.deadline_remaining, std::chrono::milliseconds(500));
  }
}

TEST_F(ProxyTest, ExpiredDeadlineIsShedAtTheProxyWithoutBackendTraffic) {
  start_backends(2);
  start_proxy(fleet_options());

  std::string envelope;
  {
    resilience::Deadline spent =
        resilience::Deadline::after(std::chrono::milliseconds(-5));
    resilience::DeadlineScope scope(spent);
    core::Assembler assembler(nullptr, {});
    auto calls = where_calls(4);
    envelope =
        assembler.assemble_request(calls, core::PackMode::kPacked).flatten();
  }
  http::Response response = raw_post(std::move(envelope));
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("DeadlineExceeded"), std::string::npos)
      << response.body;
  EXPECT_EQ(proxy_->stats().deadline_shed, 1u);
  for (const auto& backend : backends_) {
    EXPECT_EQ(backend->server->stats().http_requests, 0u)
        << backend->name << " was dialed for a message already dead";
  }
}

// --- all-backend shed: the max Retry-After relay ----------------------------

TEST_F(ProxyTest, AllBackendsShedSurfacesTheLargestRetryAfter) {
  // A stub fleet that always sheds: 503 + Retry-After + a CapacityExceeded
  // fault body, exactly what SpiServer admission control emits.
  auto shedding = [](std::atomic<int>& hits, const std::string& hint) {
    return [&hits, hint](const http::Request&) {
      hits.fetch_add(1, std::memory_order_relaxed);
      std::string body = soap::build_envelope(
          soap::Fault::from_error(
              Error(ErrorCode::kCapacityExceeded, "admission shed"))
              .to_xml());
      http::Response response = http::Response::make(
          503, "Service Unavailable", std::move(body), "text/xml");
      response.headers.set("Retry-After", hint);
      return response;
    };
  };
  std::atomic<int> slow_hits{0};
  std::atomic<int> fast_hits{0};
  http::HttpServer slow(transport_, net::Endpoint{"shed-slow", 80},
                        shedding(slow_hits, "0.500"), {});
  http::HttpServer fast(transport_, net::Endpoint{"shed-fast", 80},
                        shedding(fast_hits, "0.200"), {});
  ASSERT_TRUE(slow.start().ok());
  ASSERT_TRUE(fast.start().ok());

  ProxyOptions options;
  options.backends = {slow.endpoint(), fast.endpoint()};
  options.shard_param = "key";
  start_proxy(std::move(options));

  core::Assembler assembler(nullptr, {});
  auto calls = where_calls(16);  // enough keys to hit both stubs
  http::Response response =
      raw_post(assembler.assemble_request(calls, core::PackMode::kPacked)
          .flatten());

  ASSERT_GE(slow_hits.load(), 1) << "test premise: both stubs saw traffic";
  ASSERT_GE(fast_hits.load(), 1) << "test premise: both stubs saw traffic";
  EXPECT_EQ(response.status, 503);
  auto hint = response.headers.get("Retry-After");
  ASSERT_TRUE(hint.has_value());
  // The MAXIMUM across the fleet, not the first or smallest: the fleet has
  // headroom again only when its slowest member does.
  EXPECT_EQ(*hint, "0.500");
  EXPECT_EQ(proxy_->stats().all_backend_sheds, 1u);
}

TEST_F(ProxyTest, EmptyFleetShedsWithConfiguredHint) {
  ProxyOptions options;
  options.shard_param = "key";
  start_proxy(std::move(options));

  core::Assembler assembler(nullptr, {});
  auto calls = where_calls(2);
  http::Response response =
      raw_post(assembler.assemble_request(calls, core::PackMode::kPacked)
          .flatten());
  EXPECT_EQ(response.status, 503);
  auto hint = response.headers.get("Retry-After");
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, "0.050");  // ProxyOptions.retry_after_hint default

  http::Response health = raw_get("/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("no-backends"), std::string::npos);
}

// --- per-hop codec negotiation ----------------------------------------------

TEST_F(ProxyTest, CodecsNegotiateIndependentlyPerHop) {
  start_backends(2);
  ProxyOptions options = fleet_options();
  options.backend_request_codec = "deflate";  // proxy->backend hop
  options.backend_accept_codecs = {"deflate"};
  start_proxy(std::move(options));

  core::ClientOptions client_options;  // client->proxy hop: bxml back
  client_options.accept_codecs = {"bxml"};
  auto client = make_client(std::move(client_options));

  auto calls = where_calls(8);
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  for (const CallOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }

  // The client hop negotiated bxml at the proxy...
  const std::string proxy_metrics = proxy_->metrics().expose();
  EXPECT_NE(
      proxy_metrics.find("spi_codec_negotiations_total{codec=\"bxml\"} 1"),
      std::string::npos)
      << proxy_metrics;
  // ...while the backend hop spoke deflate in BOTH directions, invisible
  // to the origin client.
  std::string backend_metrics;
  for (const auto& backend : backends_) {
    backend_metrics += backend->server->metrics().expose();
  }
  EXPECT_NE(
      backend_metrics.find("spi_codec_decoded_bytes_total{codec=\"deflate\"}"),
      std::string::npos);
  EXPECT_NE(
      backend_metrics.find("spi_codec_negotiations_total{codec=\"deflate\"}"),
      std::string::npos);
}

// A coded request is decoded under the proxy's configured ParseLimits, not
// the defaults: with max_name_bytes raised on the proxy and the backends, a
// bxml pack carrying a parameter name past the default limit relays.
TEST_F(ProxyTest, BxmlRequestDecodesUnderConfiguredParseLimits) {
  core::ServerOptions backend_options;
  backend_options.parse_limits.max_name_bytes = 4096;
  start_backends(2, backend_options);
  ProxyOptions options = fleet_options();
  options.parse_limits.max_name_bytes = 4096;
  start_proxy(std::move(options));

  // bxml's encoder tokenizes under the default limits, so the pack is
  // encoded with a short placeholder name whose one inline definition
  // (tag 0, length varint, bytes; later uses refer to it by index) is
  // then swapped for a 2,000-byte name.
  const std::string placeholder = "placeholder-name";
  const std::string long_name(2000, 'n');
  auto calls = where_calls(6);
  for (ServiceCall& call : calls) {
    call.params.emplace_back(placeholder, Value("x"));
  }
  core::Assembler assembler(nullptr, {});
  codec::BxmlCodec bxml;
  auto encoded =
      bxml.encode(assembler.assemble_request(calls, core::PackMode::kPacked)
          .flatten());
  ASSERT_TRUE(encoded.ok()) << encoded.error().to_string();
  std::string body = std::move(encoded).value();
  const std::string defined =
      std::string(1, '\0') + static_cast<char>(placeholder.size()) +
      placeholder;
  const size_t at = body.find(defined);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(body.find(defined, at + 1), std::string::npos);
  // 2000 as a LEB128 varint: 0xD0 0x0F.
  body.replace(at, defined.size(),
               std::string(1, '\0') + "\xD0\x0F" + long_name);
  ASSERT_FALSE(bxml.decode_document(body, 1u << 20, {}).ok())
      << "test premise: the default limits reject the pack";

  http::Headers headers;
  headers.set("Content-Encoding", "bxml");
  http::Response response = raw_post(std::move(body), &headers);
  ASSERT_EQ(response.status, 200) << response.body;
  core::Dispatcher dispatcher;
  auto parsed = dispatcher.parse_response(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  auto outcomes = dispatcher.route(std::move(parsed).value(), calls.size());
  ASSERT_TRUE(outcomes.ok()) << outcomes.error().to_string();
  const auto members = member_endpoints();
  for (size_t i = 0; i < calls.size(); ++i) {
    const CallOutcome& outcome = outcomes.value()[i];
    ASSERT_TRUE(outcome.ok()) << i << ": " << outcome.error().to_string();
    EXPECT_EQ(outcome.value().as_string(),
              name_of(expected_owner(calls[i], members)))
        << "call " << i;
  }
}

// Deflate on both hops and in both directions: the proxy and each backend
// inflate the request into a fresh string that the parse adopts, and the
// client does the same with the merged response.
TEST_F(ProxyTest, DeflateRoundTripsThroughProxyAndBackends) {
  core::ServerOptions backend_options;
  start_backends(2, backend_options);
  ProxyOptions options = fleet_options();
  options.backend_request_codec = "deflate";
  options.backend_accept_codecs = {"deflate"};
  start_proxy(std::move(options));

  core::ClientOptions client_options;
  client_options.request_codec = "deflate";
  client_options.accept_codecs = {"deflate"};
  auto client = make_client(std::move(client_options));

  std::vector<ServiceCall> calls;
  for (int i = 0; i < 12; ++i) {
    calls.push_back(core::make_call(
        "EchoService", "Echo",
        {{"key", Value("k" + std::to_string(i))},
         {"data", Value(std::string(64 + i, 'a' + static_cast<char>(i)))}}));
  }
  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
    EXPECT_EQ(outcomes[i].value(),
              Value(std::string(64 + i, 'a' + static_cast<char>(i))));
  }

  const std::string proxy_metrics = proxy_->metrics().expose();
  EXPECT_NE(
      proxy_metrics.find("spi_codec_negotiations_total{codec=\"deflate\"} 1"),
      std::string::npos)
      << proxy_metrics;
  std::string backend_metrics;
  for (const auto& backend : backends_) {
    backend_metrics += backend->server->metrics().expose();
  }
  EXPECT_NE(
      backend_metrics.find("spi_codec_decoded_bytes_total{codec=\"deflate\"}"),
      std::string::npos);
}

// --- runtime ring membership ------------------------------------------------

TEST_F(ProxyTest, FleetMembershipChangesMoveOnlyTheChangedMembersKeys) {
  start_backends(2);
  start_proxy(fleet_options());
  start_backends(1);  // backend-3 runs but is NOT in the ring yet
  auto client = make_client();
  auto calls = where_calls(24);

  auto before = client->call_packed(calls);
  for (const CallOutcome& outcome : before) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }
  EXPECT_EQ(backends_[2]->server->stats().http_requests, 0u);

  proxy_->add_backend(backends_[2]->endpoint);
  EXPECT_EQ(proxy_->backends().size(), 3u);
  auto joined = client->call_packed(calls);
  std::vector<net::Endpoint> three = member_endpoints();
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(joined[i].ok()) << joined[i].error().to_string();
    EXPECT_EQ(joined[i].value().as_string(),
              name_of(expected_owner(calls[i], three)));
    // Consistent hashing: a key either stayed put or moved TO the joiner.
    if (joined[i].value().as_string() != before[i].value().as_string()) {
      EXPECT_EQ(joined[i].value().as_string(), backends_[2]->name);
    }
  }
  EXPECT_GE(backends_[2]->server->stats().http_requests, 1u);

  proxy_->remove_backend(backends_[2]->endpoint);
  EXPECT_EQ(proxy_->backends().size(), 2u);
  const std::uint64_t settled = backends_[2]->server->stats().http_requests;
  auto after = client->call_packed(calls);
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(after[i].ok()) << after[i].error().to_string();
    // Back to the original two-member placement, bit for bit.
    EXPECT_EQ(after[i].value().as_string(), before[i].value().as_string());
  }
  EXPECT_EQ(backends_[2]->server->stats().http_requests, settled)
      << "a removed backend must see no new traffic";
}

// --- observability ----------------------------------------------------------

TEST_F(ProxyTest, HealthzAndMetricsSurfaceProxyState) {
  start_backends(2);
  start_proxy(fleet_options());
  auto client = make_client();
  auto outcomes = client->call_packed(where_calls(6));
  for (const CallOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }

  http::Response health = raw_get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"backends\":2"), std::string::npos);

  http::Response metrics = raw_get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  for (const char* name :
       {"spi_proxy_requests_total", "spi_proxy_scattered_subpacks_total",
        "spi_proxy_fanout_width", "spi_proxy_backend_subpacks_total",
        "spi_breaker_state", "spi_buffer_pool_reused_total",
        "spi_buffer_pool_idle_bytes"}) {
    EXPECT_NE(metrics.body.find(name), std::string::npos) << name;
  }
}

// --- backend-kill chaos (the CI ASan leg runs ctest -R ProxyChaos) ----------

using ProxyChaosTest = ProxyTest;

TEST_F(ProxyChaosTest, BackendKillFaultsOnlyItsCallsWhenRerouteOff) {
  start_backends(3);
  ProxyOptions options = fleet_options();
  options.reroute_on_failure = false;
  start_proxy(std::move(options));
  auto client = make_client();

  auto calls = where_calls(18);
  const net::Endpoint victim = expected_owner(calls[0], member_endpoints());
  size_t victim_slots = 0;
  for (const ServiceCall& call : calls) {
    if (expected_owner(call, member_endpoints()) == victim) ++victim_slots;
  }
  ASSERT_GE(victim_slots, 1u);
  ASSERT_LT(victim_slots, calls.size()) << "survivors must own some keys";
  for (auto& backend : backends_) {
    if (backend->endpoint == victim) backend->server->stop();
  }

  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  // Partial failure is PER-CALL: exactly the dead backend's slots fault,
  // every sibling's answer arrives in its original slot.
  for (size_t i = 0; i < calls.size(); ++i) {
    const net::Endpoint owner = expected_owner(calls[i], member_endpoints());
    if (owner == victim) {
      EXPECT_FALSE(outcomes[i].ok()) << "slot " << i << " owner is dead";
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << i << ": "
                                    << outcomes[i].error().to_string();
      EXPECT_EQ(outcomes[i].value().as_string(), name_of(owner));
    }
  }
  EXPECT_EQ(proxy_->stats().reroutes, 0u);
}

TEST_F(ProxyChaosTest, BackendKillReroutesOnlyItsCallsOntoSurvivors) {
  start_backends(3);
  start_proxy(fleet_options());  // reroute_on_failure defaults on
  auto client = make_client();

  auto calls = where_calls(18);
  const net::Endpoint victim = expected_owner(calls[0], member_endpoints());
  size_t victim_slots = 0;
  for (const ServiceCall& call : calls) {
    if (expected_owner(call, member_endpoints()) == victim) ++victim_slots;
  }
  for (auto& backend : backends_) {
    if (backend->endpoint == victim) backend->server->stop();
  }

  auto outcomes = client->call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i << ": "
                                  << outcomes[i].error().to_string();
    const net::Endpoint owner = expected_owner(calls[i], member_endpoints());
    if (owner == victim) {
      // Rerouted to the NEXT clockwise survivor for that key — never the
      // dead member, and deterministically the one route_excluding names.
      EXPECT_EQ(outcomes[i].value().as_string(),
                name_of(expected_owner(calls[i], member_endpoints(),
                                       {victim})));
    } else {
      EXPECT_EQ(outcomes[i].value().as_string(), name_of(owner))
          << "a surviving backend's call must not move";
    }
  }
  auto stats = proxy_->stats();
  EXPECT_GE(stats.reroutes, 1u);
  EXPECT_EQ(stats.rerouted_calls, victim_slots);
}

TEST_F(ProxyChaosTest, BackendKilledMidStreamKeepsGoodputAtOne) {
  start_backends(3);
  ProxyOptions options = fleet_options();
  // Executed-then-severed sub-calls may land on a survivor: the chaos
  // workload is idempotent (Where is bind_idempotent on every backend).
  options.backend_retry.idempotent = [](std::string_view,
                                        std::string_view) { return true; };
  start_proxy(std::move(options));
  auto client = make_client();

  const net::Endpoint victim =
      expected_owner(where("key-0"), member_endpoints());
  constexpr size_t kMessages = 30;
  constexpr size_t kCallsPerMessage = 9;
  size_t ok = 0;
  for (size_t i = 0; i < kMessages; ++i) {
    if (i == kMessages / 3) {
      // The kill lands mid-stream: a third of the workload ran against the
      // full fleet, the rest must survive on two members.
      for (auto& backend : backends_) {
        if (backend->endpoint == victim) backend->server->stop();
      }
    }
    auto outcomes = client->call_packed(where_calls(kCallsPerMessage));
    for (const CallOutcome& outcome : outcomes) {
      if (outcome.ok()) {
        ++ok;
      } else {
        ADD_FAILURE() << "message " << i << ": "
                      << outcome.error().to_string();
      }
    }
  }
  EXPECT_EQ(ok, kMessages * kCallsPerMessage)
      << "reroute must hold goodput at 1.0 through the kill";
  EXPECT_GE(proxy_->stats().reroutes, 1u);
  EXPECT_GE(proxy_->stats().rerouted_calls, 1u);
}

}  // namespace
}  // namespace spi::proxy
