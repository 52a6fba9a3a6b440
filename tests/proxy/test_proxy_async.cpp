// Packing-proxy scatter on the reactor-driven async client (DESIGN.md
// §16): over a transport with non-blocking connect the proxy fans K
// sub-packs out through ONE shared AsyncHttpClient — zero scatter-pool
// threads, the handler blocks once per message — and K=2 sub-pack
// balancing (DESIGN.md §15) moves tail calls between exactly two groups
// when that lowers the handler-round count of the pair.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "proxy/hash_ring.hpp"
#include "proxy/proxy.hpp"

namespace spi::proxy {
namespace {

using core::CallOutcome;
using core::ServiceCall;
using soap::Value;

/// Shared fixture shape over either transport: backends exposing
/// ShardService/Where (answers with the backend's own name, so merged
/// responses REVEAL placement), a proxy sharding by the "key" parameter.
template <typename TransportT>
class ProxyFixture : public ::testing::Test {
 protected:
  struct BackendHost {
    std::string name;
    core::ServiceRegistry registry;
    std::unique_ptr<core::SpiServer> server;
  };

  virtual net::Endpoint backend_bind_endpoint(const std::string& name) = 0;
  virtual net::Endpoint proxy_bind_endpoint() = 0;

  void start_backends(int count) {
    for (int i = 0; i < count; ++i) {
      auto host = std::make_unique<BackendHost>();
      host->name = "backend-" + std::to_string(backends_.size() + 1);
      core::ServiceBinder binder(host->registry, "ShardService");
      const std::string name = host->name;
      binder.bind_idempotent("Where", [name](const soap::Struct&) {
        return Result<Value>(Value(name));
      });
      host->server = std::make_unique<core::SpiServer>(
          transport_, backend_bind_endpoint(host->name), host->registry);
      ASSERT_TRUE(host->server->start().ok());
      backends_.push_back(std::move(host));
    }
  }

  void start_proxy(ProxyOptions options) {
    for (const auto& backend : backends_) {
      options.backends.push_back(backend->server->endpoint());
    }
    options.shard_param = "key";
    proxy_ = std::make_unique<PackingProxy>(transport_, proxy_bind_endpoint(),
                                            std::move(options));
    ASSERT_TRUE(proxy_->start().ok());
  }

  ServiceCall where(const std::string& key) {
    return core::make_call("ShardService", "Where", {{"key", Value(key)}});
  }

  /// The ring owner's NAME for a call: same pure function of (members,
  /// vnodes, key) the proxy's own ring computes.
  std::string expected_owner(const ServiceCall& call) {
    HashRing ring(64);
    std::map<net::Endpoint, std::string> names;
    for (const auto& backend : backends_) {
      ring.add(backend->server->endpoint());
      names[backend->server->endpoint()] = backend->name;
    }
    auto owner = ring.route(proxy_->route_key(call));
    EXPECT_TRUE(owner.has_value());
    return owner ? names[*owner] : std::string();
  }

  /// Keys routed to distinct owners: finds `per_owner[i]` keys owned by
  /// backend i+1, probing "key-0", "key-1", ... in order.
  std::vector<ServiceCall> calls_with_placement(
      const std::vector<int>& per_owner) {
    std::vector<int> need(per_owner);
    std::vector<ServiceCall> calls;
    for (int probe = 0; probe < 100000; ++probe) {
      ServiceCall call = where("key-" + std::to_string(probe));
      std::string owner = expected_owner(call);
      for (size_t b = 0; b < need.size(); ++b) {
        if (owner == backends_[b]->name && need[b] > 0) {
          --need[b];
          calls.push_back(std::move(call));
          break;
        }
      }
      bool done = true;
      for (int n : need) done &= (n == 0);
      if (done) return calls;
    }
    ADD_FAILURE() << "could not find keys with requested placement";
    return calls;
  }

  static std::map<std::string, int> placement_counts(
      const std::vector<CallOutcome>& outcomes) {
    std::map<std::string, int> counts;
    for (const CallOutcome& outcome : outcomes) {
      if (outcome.ok()) ++counts[std::string(outcome.value().as_string())];
    }
    return counts;
  }

  TransportT transport_;
  std::vector<std::unique_ptr<BackendHost>> backends_;
  std::unique_ptr<PackingProxy> proxy_;
};

// ---------------------------------------------------------------------------
// Async scatter path: TcpTransport supports non-blocking connect, so the
// proxy builds its reactor runtime and scatter_threads=0 is viable.

class AsyncProxyTest : public ProxyFixture<net::TcpTransport> {
 protected:
  net::Endpoint backend_bind_endpoint(const std::string&) override {
    return net::Endpoint{"127.0.0.1", 0};
  }
  net::Endpoint proxy_bind_endpoint() override {
    return net::Endpoint{"127.0.0.1", 0};
  }
};

TEST_F(AsyncProxyTest, K8ScatterWithZeroScatterThreads) {
  start_backends(8);
  ProxyOptions options;
  options.scatter_threads = 0;  // async mode needs NO scatter pool
  start_proxy(std::move(options));
  ASSERT_TRUE(proxy_->async_scatter());

  core::SpiClient client(transport_, proxy_->endpoint());
  std::vector<ServiceCall> calls;
  for (int i = 0; i < 32; ++i) calls.push_back(where("key-" + std::to_string(i)));
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 32u);
  // Every call answered by its ring owner (>2 groups: no K=2 rebalance).
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
    EXPECT_EQ(outcomes[i].value().as_string(), expected_owner(calls[i]))
        << "slot " << i;
  }

  auto stats = proxy_->stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_GE(stats.scattered_subpacks, 2u);
  EXPECT_LE(stats.scattered_subpacks, 8u);
}

TEST_F(AsyncProxyTest, AsyncRerouteOnDeadBackendKeepsPackWhole) {
  start_backends(4);
  start_proxy(ProxyOptions{});
  ASSERT_TRUE(proxy_->async_scatter());

  // Six calls per ring owner, then kill one backend AFTER the ring
  // formed: its sub-pack fails fast (connect refused) and reroutes onto
  // survivors inside the same message.
  auto calls = calls_with_placement({6, 6, 6, 6});
  ASSERT_EQ(calls.size(), 24u);
  backends_[0]->server->stop();

  core::SpiClient client(transport_, proxy_->endpoint());
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 24u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok())
        << "slot " << i << ": " << outcomes[i].error().to_string();
    EXPECT_NE(outcomes[i].value().as_string(), backends_[0]->name);
  }
  EXPECT_GE(proxy_->stats().rerouted_calls, 6u);
}

TEST_F(AsyncProxyTest, AsyncRuntimeMetricsExposedFromProxyRegistry) {
  start_backends(2);
  ProxyOptions options;
  options.scatter_threads = 0;
  start_proxy(std::move(options));

  core::SpiClient client(transport_, proxy_->endpoint());
  auto outcomes = client.call_packed(std::vector<ServiceCall>{
      where("key-a"), where("key-b"), where("key-c")});
  ASSERT_EQ(outcomes.size(), 3u);

  std::string scrape = proxy_->metrics().expose();
  EXPECT_NE(scrape.find("spi_async_client_requests_total"), std::string::npos)
      << scrape;
  EXPECT_NE(scrape.find("spi_proxy_rebalanced_calls_total"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// K=2 sub-pack balancing: SimTransport has no non-blocking connect, so
// these run on the blocking scatter path — the balancing is path-agnostic
// (it rewrites the groups BEFORE scatter).

class RebalanceProxyTest : public ProxyFixture<net::SimTransport> {
 protected:
  net::Endpoint backend_bind_endpoint(const std::string& name) override {
    return net::Endpoint{name, 80};
  }
  net::Endpoint proxy_bind_endpoint() override {
    return net::Endpoint{"proxy", 80};
  }
};

TEST_F(RebalanceProxyTest, MovesTailCallsToEqualizeHandlerRounds) {
  start_backends(2);
  ProxyOptions options;
  options.rebalance_handler_round = 8;
  start_proxy(std::move(options));
  EXPECT_FALSE(proxy_->async_scatter());

  // 15 calls on backend-1, 1 on backend-2: rounds of 8 make the pair
  // {2 rounds, 1 round}. Moving 7 tail calls gives {8, 8} = one round
  // each — the merged pack answers a full round sooner.
  auto calls = calls_with_placement({15, 1});
  ASSERT_EQ(calls.size(), 16u);

  core::SpiClient client(transport_, proxy_->endpoint());
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 16u);
  for (const CallOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  }
  auto counts = placement_counts(outcomes);
  EXPECT_EQ(counts["backend-1"], 8);
  EXPECT_EQ(counts["backend-2"], 8);
  EXPECT_EQ(proxy_->stats().rebalanced_calls, 7u);
}

TEST_F(RebalanceProxyTest, LeavesBalancedPairsAlone) {
  start_backends(2);
  ProxyOptions options;
  options.rebalance_handler_round = 8;
  start_proxy(std::move(options));

  // {8, 8} is already optimal (one round each): nothing may move, strict
  // shard affinity holds.
  auto calls = calls_with_placement({8, 8});
  core::SpiClient client(transport_, proxy_->endpoint());
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 16u);
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(outcomes[i].value().as_string(), expected_owner(calls[i]));
  }
  EXPECT_EQ(proxy_->stats().rebalanced_calls, 0u);
}

TEST_F(RebalanceProxyTest, DisabledKnobPreservesStrictAffinity) {
  start_backends(2);
  ProxyOptions options;
  options.rebalance_handler_round = 0;  // off
  start_proxy(std::move(options));

  auto calls = calls_with_placement({15, 1});
  core::SpiClient client(transport_, proxy_->endpoint());
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 16u);
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(outcomes[i].value().as_string(), expected_owner(calls[i]));
  }
  auto counts = placement_counts(outcomes);
  EXPECT_EQ(counts["backend-1"], 15);
  EXPECT_EQ(counts["backend-2"], 1);
  EXPECT_EQ(proxy_->stats().rebalanced_calls, 0u);
}

TEST_F(RebalanceProxyTest, ThreeGroupsNeverRebalance) {
  start_backends(3);
  ProxyOptions options;
  options.rebalance_handler_round = 8;
  start_proxy(std::move(options));

  // K=2 balancing is exactly-two-groups by design: three owners keep
  // strict affinity even when lopsided.
  auto calls = calls_with_placement({12, 2, 2});
  core::SpiClient client(transport_, proxy_->endpoint());
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), 16u);
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(outcomes[i].value().as_string(), expected_owner(calls[i]));
  }
  EXPECT_EQ(proxy_->stats().rebalanced_calls, 0u);
}

}  // namespace
}  // namespace spi::proxy
