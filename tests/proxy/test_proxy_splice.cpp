// The packing proxy's byte-level hop (DESIGN.md §15): sub-packs and merges
// are spliced from the bytes of the origin envelope and the backend
// replies, never decoded into values. These tests hold the splice to the
// decode/re-encode path it replaced:
//   * golden bytes — each spliced sub-pack equals what the Assembler writes
//     for the decoded calls, and each merge what it writes for the decoded
//     values and the backends' own faults;
//   * placement — every call lands on ring.route(route_key(call)), entity
//     references and non-string shard params included;
//   * faulted children reach the origin as their backend wrote them, so
//     the origin classifies them as a direct client would, and reroute
//     moves exactly the movable ones;
//   * an envelope from another stack (other prefixes, extra namespace
//     declarations, attribute order, comments) relays and answers;
//   * ring_hash reads exactly its view, at every alignment.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/assembler.hpp"
#include "core/client.hpp"
#include "core/dispatcher.hpp"
#include "core/params.hpp"
#include "core/registry.hpp"
#include "core/wire_view.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "net/sim_transport.hpp"
#include "proxy/hash_ring.hpp"
#include "proxy/proxy.hpp"
#include "resilience/retry.hpp"
#include "services/echo.hpp"
#include "soap/envelope.hpp"
#include "telemetry/trace.hpp"

namespace spi::proxy {
namespace {

using core::CallOutcome;
using core::IndexedOutcome;
using core::PackMode;
using core::ServiceCall;
using core::wire::CallView;
using core::wire::RelayedOutcome;
using soap::Value;

/// `prefix` followed by `n`, built by append ("s" + std::to_string(n) reads
/// as an overlapping copy to gcc 12's -Wrestrict).
std::string tagged(std::string_view prefix, int n) {
  std::string text(prefix);
  text += std::to_string(n);
  return text;
}

// --- golden bytes -------------------------------------------------------------

std::string random_text(SplitMix64& rng) {
  static const char* const kPieces[] = {"a",  "Z", "7", " ", "&",  "<",
                                        ">",  "\r", "\n", "\"", "'", "]]>",
                                        "\xc3\xa9", "\xe6\x97\xa5", "&amp;"};
  std::string text;
  const size_t pieces = rng.next_below(24);
  for (size_t i = 0; i < pieces; ++i) {
    text += kPieces[rng.next_below(std::size(kPieces))];
  }
  return text;
}

Value random_value(SplitMix64& rng, int depth = 0) {
  switch (rng.next_below(depth < 2 ? 8 : 6)) {
    case 0: return Value(static_cast<std::int64_t>(rng.next()));
    case 1: return Value((rng.next_double() - 0.5) * 1e9);
    case 2: return Value(rng.next_below(2) == 0);
    case 3: return Value();
    case 4:
    case 5: return Value(random_text(rng));
    case 6: {
      soap::Array items;
      for (size_t i = rng.next_below(4); i > 0; --i) {
        items.push_back(random_value(rng, depth + 1));
      }
      return Value(std::move(items));
    }
    default: {
      soap::Struct fields;
      for (size_t i = rng.next_below(4); i > 0; --i) {
        fields.emplace_back("f" + std::to_string(i),
                            random_value(rng, depth + 1));
      }
      return Value(std::move(fields));
    }
  }
}

ServiceCall random_call(SplitMix64& rng) {
  soap::Struct params;
  for (size_t i = rng.next_below(4); i > 0; --i) {
    params.emplace_back("p" + std::to_string(i), random_value(rng));
  }
  params.emplace_back("key", Value(random_text(rng)));
  return core::make_call("Svc" + std::to_string(rng.next_below(3)),
                         "Op" + std::to_string(rng.next_below(3)),
                         std::move(params));
}

/// What a backend answers for a sub-pack of `calls` (framed as kAuto
/// frames them: traditional for one call).
std::string backend_reply(core::Assembler& assembler,
                          std::span<const ServiceCall> calls,
                          std::span<const CallOutcome> outcomes) {
  std::vector<IndexedOutcome> indexed;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    indexed.push_back({static_cast<std::uint32_t>(i), outcomes[i]});
  }
  return assembler.assemble_response(indexed, calls.front(), calls.size() > 1)
      .flatten();
}

TEST(ProxySpliceGoldenTest, SubPacksAndMergesEqualTheAssemblersOutput) {
  SplitMix64 rng(0x5011CE);
  core::Assembler assembler;
  core::Dispatcher dispatcher;
  // A fixed ambient trace: header blocks are then identical on both sides,
  // and the whole envelopes compare, not just their bodies.
  telemetry::TraceContext trace = telemetry::TraceContext::generate();
  telemetry::TraceScope trace_scope(trace);
  for (int round = 0; round < 60; ++round) {
    const size_t m = 1 + rng.next_below(64);
    std::vector<ServiceCall> calls;
    for (size_t i = 0; i < m; ++i) calls.push_back(random_call(rng));
    const std::string origin = assembler.assemble_request(
        calls, m == 1 && rng.next_below(2) == 0 ? PackMode::kSingle
                                                : PackMode::kPacked).flatten();
    auto view = core::wire::view_request(origin, {}, {}, "key");
    ASSERT_TRUE(view.ok()) << view.error().to_string();
    ASSERT_EQ(view.value().calls.size(), m);

    // Random groups (one-call groups included), order kept within each.
    const size_t k = 1 + rng.next_below(std::min<size_t>(m, 5));
    std::vector<std::vector<size_t>> groups(k);
    for (size_t i = 0; i < m; ++i) groups[rng.next_below(k)].push_back(i);

    std::vector<CallOutcome> decoded(m, CallOutcome(Value()));
    std::vector<RelayedOutcome> relayed(m, RelayedOutcome(std::string_view()));
    std::vector<std::unique_ptr<const std::string>> replies;
    for (const auto& slots : groups) {
      if (slots.empty()) continue;
      std::vector<ServiceCall> group_calls;
      std::vector<CallView> group_views;
      for (size_t slot : slots) {
        group_calls.push_back(calls[slot]);
        group_views.push_back(view.value().calls[slot]);
      }
      // The sub-pack, spliced vs assembled from the decoded calls.
      ASSERT_EQ(assembler.assemble_request(group_views, PackMode::kAuto),
                assembler.assemble_request(group_calls, PackMode::kAuto)
                    .flatten())
          << "round " << round;

      // The backend's answer: values and faults of every kind.
      std::vector<CallOutcome> answers;
      for (size_t i = 0; i < slots.size(); ++i) {
        switch (rng.next_below(5)) {
          case 0:
            answers.emplace_back(Error(ErrorCode::kCapacityExceeded,
                                       "shed <at> the & door"));
            break;
          case 1:
            answers.emplace_back(Error(ErrorCode::kNotFound, random_text(rng)));
            break;
          default:
            answers.emplace_back(random_value(rng));
        }
      }
      replies.push_back(std::make_unique<const std::string>(
          backend_reply(assembler, group_calls, answers)));
      auto parsed = dispatcher.parse_response(*replies.back());
      ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
      auto routed = dispatcher.route(std::move(parsed).value(), slots.size());
      ASSERT_TRUE(routed.ok()) << routed.error().to_string();
      auto scanned = dispatcher.view_response(*replies.back());
      ASSERT_TRUE(scanned.ok()) << scanned.error().to_string();
      auto relayed_group =
          dispatcher.route(std::move(scanned).value(), slots.size());
      ASSERT_TRUE(relayed_group.ok()) << relayed_group.error().to_string();
      for (size_t i = 0; i < slots.size(); ++i) {
        // A fault is relayed as its backend wrote it, not re-wrapped.
        decoded[slots[i]] = answers[i].ok() ? routed.value()[i] : answers[i];
        relayed[slots[i]] = relayed_group.value()[i];
      }
    }

    // The merge, spliced vs assembled from the decoded values and the
    // backends' own faults.
    std::vector<IndexedOutcome> indexed;
    for (size_t i = 0; i < m; ++i) {
      indexed.push_back({view.value().calls[i].id, decoded[i]});
    }
    ASSERT_EQ(assembler.assemble_response(relayed, view.value().calls,
                                          view.value().packed),
              assembler.assemble_response(indexed, calls.front(),
                                          view.value().packed).flatten())
        << "round " << round;
  }
}

TEST(ProxySpliceGoldenTest, BodiesMatchUnderADeadline) {
  // The spi:Deadline value differs from one assembly to the next; all
  // else, body included, matches.
  core::Assembler assembler;
  SplitMix64 rng(7);
  std::vector<ServiceCall> calls;
  for (int i = 0; i < 9; ++i) calls.push_back(random_call(rng));
  const std::string origin = assembler.assemble_request(calls).flatten();
  auto view = core::wire::view_request(origin, {}, {}, "key");
  ASSERT_TRUE(view.ok());
  resilience::Deadline deadline =
      resilience::Deadline::after(std::chrono::seconds(3));
  resilience::DeadlineScope scope(deadline);
  auto body = [](const std::string& envelope) {
    return envelope.substr(envelope.find("<SOAP-ENV:Body>"));
  };
  const std::string spliced =
      assembler.assemble_request(view.value().calls, PackMode::kPacked);
  EXPECT_NE(spliced.find("<spi:Deadline>"), std::string::npos);
  EXPECT_EQ(body(spliced),
            body(assembler.assemble_request(calls, PackMode::kPacked)
                .flatten()));
}

// --- ring_hash ---------------------------------------------------------------

TEST(ProxySpliceRingHashTest, ViewIntoALargerBufferHashesAsAnOwnedCopy) {
  SplitMix64 rng(99);
  std::string buffer(64, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.next());
  std::set<std::uint64_t> distinct;
  for (size_t length = 0; length <= 17; ++length) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const std::string_view view(buffer.data() + offset, length);
      const std::string owned(view);
      EXPECT_EQ(ring_hash(view), ring_hash(owned))
          << "length " << length << " offset " << offset;
      distinct.insert(ring_hash(view));
    }
  }
  // Neighbouring bytes never leak in: 18 lengths x 8 offsets of random
  // bytes give 18 * 8 distinct keys (the empty key once).
  EXPECT_EQ(distinct.size(), 17u * 8 + 1);
}

// --- through a proxy ---------------------------------------------------------

/// A backend that records each request body and answers it as SpiServer
/// does (Dispatcher + registry + Assembler), or sheds every call (of every
/// request, or of its first request only), or stalls past the proxy's
/// receive timeout.
class Backend {
 public:
  enum class Mode { kServe, kShedAll, kShedFirst, kStall };

  Backend(net::Transport& transport, std::string name, Mode mode = Mode::kServe)
      : name_(std::move(name)), mode_(mode) {
    services::register_echo_service(registry_);
    core::ServiceBinder binder(registry_, "ShardService");
    const std::string answer = name_;
    binder.bind_idempotent("Where", [answer](const soap::Struct&) {
      return Result<Value>(Value(answer));
    });
    binder.bind("Other", [answer](const soap::Struct&) {
      return Result<Value>(Value(answer));
    });
    binder.bind("Fail", [](const soap::Struct&) -> Result<Value> {
      return Error(ErrorCode::kNotFound, "no such <row> & no such key");
    });
    binder.bind("Raise", [](const soap::Struct& params) -> Result<Value> {
      auto code = core::require_int(params, "code");
      if (!code.ok()) return code.error();
      return Error(static_cast<ErrorCode>(code.value()),
                   "raised <" + std::to_string(code.value()) + "> & kept");
    });
    server_ = std::make_unique<http::HttpServer>(
        transport, net::Endpoint{name_, 80},
        [this](http::Request&& request) { return handle(std::move(request)); },
        http::ServerOptions{});
    EXPECT_TRUE(server_->start().ok());
  }

  ~Backend() { server_->stop(); }

  const std::string& name() const { return name_; }
  net::Endpoint endpoint() const { return server_->endpoint(); }
  std::vector<std::string> bodies() {
    std::lock_guard lock(mutex_);
    return bodies_;
  }

 private:
  http::Response handle(http::Request&& request) {
    bool shed = mode_ == Mode::kShedAll;
    {
      std::lock_guard lock(mutex_);
      bodies_.push_back(request.body);
      shed = shed || (mode_ == Mode::kShedFirst && bodies_.size() == 1);
    }
    if (mode_ == Mode::kStall) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    auto parsed = dispatcher_.parse_request(std::move(request.body));
    if (!parsed.ok()) {
      return http::Response::make(
          400, "Bad Request",
          soap::build_envelope(
              soap::Fault::from_error(parsed.error()).to_xml()),
          "text/xml");
    }
    const core::wire::ParsedRequest& message = parsed.value();
    std::vector<IndexedOutcome> outcomes;
    if (shed) {
      for (const core::IndexedCall& call : message.calls) {
        outcomes.push_back(
            {call.id, CallOutcome(Error(ErrorCode::kCapacityExceeded,
                                        "shed at " + name_))});
      }
    } else {
      outcomes = dispatcher_.execute(message, registry_, nullptr);
    }
    std::string body = assembler_.assemble_response(
        outcomes, message.calls.front().call, message.packed).flatten();
    const int status =
        !message.packed && !outcomes.front().outcome.ok() ? 500 : 200;
    return http::Response::make(status, http::default_reason(status),
                                std::move(body), "text/xml");
  }

  std::string name_;
  Mode mode_;
  core::ServiceRegistry registry_;
  core::Dispatcher dispatcher_;
  core::Assembler assembler_;
  std::mutex mutex_;
  std::vector<std::string> bodies_;
  std::unique_ptr<http::HttpServer> server_;
};

class ProxySpliceTest : public ::testing::Test {
 protected:
  Backend& add_backend(Backend::Mode mode = Backend::Mode::kServe) {
    backends_.push_back(std::make_unique<Backend>(
        transport_, "backend-" + std::to_string(backends_.size() + 1), mode));
    return *backends_.back();
  }

  void start_proxy(ProxyOptions options) {
    for (const auto& backend : backends_) {
      options.backends.push_back(backend->endpoint());
    }
    if (options.shard_param.empty()) options.shard_param = "key";
    proxy_ = std::make_unique<PackingProxy>(
        transport_, net::Endpoint{"proxy", 80}, std::move(options));
    ASSERT_TRUE(proxy_->start().ok());
  }

  /// The backend the ring assigns `call` (same members, same vnodes).
  std::string owner_of(const ServiceCall& call,
                       const std::set<net::Endpoint>& avoid = {}) {
    HashRing ring(64);
    for (const auto& backend : backends_) ring.add(backend->endpoint());
    auto owner = avoid.empty()
                     ? ring.route(proxy_->route_key(call))
                     : ring.route_excluding(proxy_->route_key(call), avoid);
    for (const auto& backend : backends_) {
      if (owner && backend->endpoint() == *owner) return backend->name();
    }
    return "?";
  }

  std::vector<CallOutcome> call_packed(const std::vector<ServiceCall>& calls) {
    core::SpiClient client(transport_, proxy_->endpoint());
    return client.call_packed(calls);
  }

  net::SimTransport transport_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<PackingProxy> proxy_;  // after backends_: destroyed first
};

ServiceCall where(Value key, std::string operation = "Where") {
  return core::make_call("ShardService", std::move(operation),
                         {{"key", std::move(key)}});
}

TEST_F(ProxySpliceTest, EveryCallLandsOnItsRingOwner) {
  for (int i = 0; i < 3; ++i) add_backend();
  ProxyOptions options;
  options.rebalance_handler_round = 0;  // strict affinity
  start_proxy(std::move(options));

  std::vector<ServiceCall> calls;
  for (int i = 0; i < 24; ++i) {
    calls.push_back(where(Value("k&" + std::to_string(i) + "<\r\xc3\xa9>")));
  }
  // Non-string shard params fall back to operation affinity.
  calls.push_back(where(Value(42)));
  calls.push_back(where(Value()));
  calls.push_back(where(Value(soap::Struct{{"key", Value("inner")}})));
  calls.push_back(where(Value(7), "Other"));
  calls.push_back(core::make_call("ShardService", "Other"));

  auto outcomes = call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  std::set<std::string> hit;
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].error().to_string();
    EXPECT_EQ(outcomes[i].value().as_string(), owner_of(calls[i])) << i;
    hit.insert(std::string(outcomes[i].value().as_string()));
  }
  EXPECT_GE(hit.size(), 2u);
  EXPECT_EQ(proxy_->route_key(calls[24]), "ShardService/Where");
}

/// What a client decodes for a call whose handler (or the proxy itself)
/// failed with `error`: the server writes Fault::from_error, and the
/// proxy's merge relays a backend's Fault element as written.
Error as_relayed(const Error& error) {
  return soap::Fault::from_error(error).to_error();
}

TEST_F(ProxySpliceTest, FaultedChildrenDecodeAsBeforeAtTheOrigin) {
  add_backend();
  add_backend(Backend::Mode::kShedAll);
  ProxyOptions options;
  options.reroute_on_failure = false;
  options.rebalance_handler_round = 0;
  start_proxy(std::move(options));

  std::vector<ServiceCall> calls;
  for (int i = 0; i < 16; ++i) {
    calls.push_back(i % 3 == 0
                        ? where(Value("f" + std::to_string(i)), "Fail")
                        : where(Value("w" + std::to_string(i))));
  }
  auto outcomes = call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  size_t shed = 0;
  size_t terminal = 0;
  for (size_t i = 0; i < calls.size(); ++i) {
    const std::string owner = owner_of(calls[i]);
    if (owner == "backend-2") {
      // Shed by its backend: the backend wrote Fault(CapacityExceeded),
      // and the merge relays it as written.
      const Error expected =
          as_relayed(Error(ErrorCode::kCapacityExceeded, "shed at backend-2"));
      ASSERT_FALSE(outcomes[i].ok()) << i;
      EXPECT_EQ(outcomes[i].error(), expected);
      EXPECT_EQ(resilience::fault_cause(outcomes[i].error()),
                ErrorCode::kCapacityExceeded);
      ++shed;
    } else if (calls[i].operation == "Fail") {
      const Error expected = as_relayed(
          Error(ErrorCode::kNotFound, "no such <row> & no such key"));
      ASSERT_FALSE(outcomes[i].ok()) << i;
      EXPECT_EQ(outcomes[i].error(), expected);
      EXPECT_EQ(resilience::classify(outcomes[i].error()),
                resilience::FaultClass::kTerminal);
      ++terminal;
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
      EXPECT_EQ(outcomes[i].value().as_string(), owner);
    }
  }
  EXPECT_GE(shed, 1u);
  EXPECT_GE(terminal, 1u);

  // A traditional (single) origin: a fault comes back as a bare Fault on
  // HTTP 500, which the client decodes to the same error.
  core::SpiClient client(transport_, proxy_->endpoint());
  ServiceCall failing = where(Value("single-0"), "Fail");
  for (int probe = 1; owner_of(failing) != "backend-1"; ++probe) {
    failing = where(Value("single-" + std::to_string(probe)), "Fail");
  }
  auto single = client.call(failing);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error(),
            as_relayed(
                Error(ErrorCode::kNotFound, "no such <row> & no such key")));
}

TEST_F(ProxySpliceTest, OriginClassifiesBackendFaultsAsADirectClientDoes) {
  Backend& backend = add_backend();
  ProxyOptions options;
  options.reroute_on_failure = false;
  start_proxy(std::move(options));
  core::SpiClient direct(transport_, backend.endpoint());
  core::SpiClient origin(transport_, proxy_->endpoint());

  for (int code = static_cast<int>(ErrorCode::kInvalidArgument);
       code <= static_cast<int>(ErrorCode::kInternal); ++code) {
    SCOPED_TRACE(error_code_name(static_cast<ErrorCode>(code)));
    const ServiceCall raise = core::make_call(
        "ShardService", "Raise",
        {{"key", Value("r")}, {"code", Value(std::int64_t{code})}});
    // Packed beside a call that succeeds, and alone in traditional
    // framing (a bare Fault on HTTP 500).
    const std::vector<ServiceCall> pack = {raise, where(Value("ok"))};
    const std::vector<CallOutcome> direct_pack = direct.call_packed(pack);
    const std::vector<CallOutcome> relayed_pack = origin.call_packed(pack);
    const CallOutcome direct_single = direct.call(raise);
    const CallOutcome relayed_single = origin.call(raise);
    ASSERT_EQ(relayed_pack.size(), pack.size());
    EXPECT_TRUE(relayed_pack[1].ok());
    ASSERT_FALSE(direct_pack[0].ok());
    ASSERT_FALSE(relayed_pack[0].ok());
    EXPECT_EQ(resilience::fault_cause(relayed_pack[0].error()),
              resilience::fault_cause(direct_pack[0].error()))
        << relayed_pack[0].error().to_string();
    EXPECT_EQ(resilience::classify(relayed_pack[0].error()),
              resilience::classify(direct_pack[0].error()))
        << relayed_pack[0].error().to_string();

    ASSERT_FALSE(direct_single.ok());
    ASSERT_FALSE(relayed_single.ok());
    EXPECT_EQ(resilience::classify(relayed_single.error()),
              resilience::classify(direct_single.error()))
        << relayed_single.error().to_string();
    // A one-call message that its only backend shed is answered by the
    // proxy's all-shed 503, which names the backend's shed cause
    // (CapacityExceeded or Shutdown). Every other fault is relayed as
    // written.
    EXPECT_EQ(resilience::fault_cause(relayed_single.error()),
              resilience::fault_cause(direct_single.error()))
        << relayed_single.error().to_string();
  }
}

TEST_F(ProxySpliceTest, AllShedFaultNamesTheBackendsCauseWhenTheyAgree) {
  add_backend();
  add_backend();
  ProxyOptions options;
  options.reroute_on_failure = false;
  options.rebalance_handler_round = 0;
  start_proxy(std::move(options));
  // A Raise call on `backend` that sheds with `code`.
  auto shed_on = [this](const std::string& backend, ErrorCode code) {
    for (int probe = 0;; ++probe) {
      ServiceCall call = core::make_call(
          "ShardService", "Raise",
          {{"key", Value("s" + std::to_string(probe))},
           {"code", Value(std::int64_t{static_cast<int>(code)})}});
      if (owner_of(call) == backend) return call;
    }
  };
  core::ClientOptions client_options;
  client_options.retry.max_attempts = 1;
  core::SpiClient origin(transport_, proxy_->endpoint(), client_options);
  auto cause_of = [&origin](const std::vector<ServiceCall>& calls) {
    const std::vector<CallOutcome> outcomes = origin.call_packed(calls);
    EXPECT_EQ(outcomes.size(), calls.size());
    for (const CallOutcome& outcome : outcomes) {
      EXPECT_FALSE(outcome.ok());
      if (outcome.ok()) return ErrorCode::kOk;
      EXPECT_EQ(outcome.error(), outcomes.front().error());
    }
    return resilience::fault_cause(outcomes.front().error());
  };

  EXPECT_EQ(cause_of({shed_on("backend-1", ErrorCode::kShutdown),
                      shed_on("backend-2", ErrorCode::kShutdown)}),
            ErrorCode::kShutdown);
  EXPECT_EQ(cause_of({shed_on("backend-1", ErrorCode::kShutdown),
                      shed_on("backend-2", ErrorCode::kCapacityExceeded)}),
            ErrorCode::kCapacityExceeded);
  EXPECT_EQ(proxy_->stats().all_backend_sheds, 2u);
}

TEST_F(ProxySpliceTest, OriginLadderRetriesAChildItsBackendShed) {
  add_backend();
  Backend& flaky = add_backend(Backend::Mode::kShedFirst);
  ProxyOptions options;
  options.reroute_on_failure = false;
  options.rebalance_handler_round = 0;
  start_proxy(std::move(options));

  std::vector<ServiceCall> calls;
  for (int i = 0; i < 16; ++i) {
    calls.push_back(where(Value(tagged("s", i))));
  }
  size_t shed = 0;
  for (const ServiceCall& call : calls) shed += owner_of(call) == "backend-2";
  ASSERT_GE(shed, 1u);
  ASSERT_LT(shed, calls.size());

  // The proxy does not retry (backend_retry: one attempt) and does not
  // reroute, so only the origin's re-pack ladder can replay the shed
  // children, once their backend admits them.
  core::ClientOptions client_options;
  client_options.retry.max_attempts = 3;
  core::SpiClient client(transport_, proxy_->endpoint(), client_options);
  auto outcomes = client.call_packed(calls);
  ASSERT_EQ(outcomes.size(), calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].error().to_string();
    EXPECT_EQ(outcomes[i].value().as_string(), owner_of(calls[i])) << i;
  }
  EXPECT_EQ(client.stats().partial_repacks, 1u);
  EXPECT_EQ(flaky.bodies().size(), 2u);
}

TEST_F(ProxySpliceTest, RerouteMovesExactlyTheShedChildren) {
  add_backend();
  Backend& shedder = add_backend(Backend::Mode::kShedAll);
  ProxyOptions options;
  options.rebalance_handler_round = 0;
  start_proxy(std::move(options));

  std::vector<ServiceCall> calls;
  for (int i = 0; i < 20; ++i) calls.push_back(where(Value(tagged("r", i))));
  size_t moved = 0;
  for (const ServiceCall& call : calls) moved += owner_of(call) == "backend-2";
  ASSERT_GE(moved, 1u);
  ASSERT_LT(moved, calls.size());

  auto outcomes = call_packed(calls);
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].error().to_string();
    // Shed calls were never executed: they move to the survivor.
    EXPECT_EQ(outcomes[i].value().as_string(), "backend-1") << i;
  }
  EXPECT_EQ(proxy_->stats().rerouted_calls, moved);
  EXPECT_EQ(shedder.bodies().size(), 1u);
}

TEST_F(ProxySpliceTest, RerouteMovesTimedOutChildrenOnlyWhenIdempotent) {
  add_backend();
  add_backend(Backend::Mode::kStall);
  ProxyOptions options;
  options.rebalance_handler_round = 0;
  options.receive_timeout = std::chrono::milliseconds(50);
  // A timed-out sub-pack may have executed: only operations declared
  // idempotent may run again elsewhere.
  options.backend_retry.idempotent = [](std::string_view,
                                        std::string_view operation) {
    return operation == "Where";
  };
  start_proxy(std::move(options));

  std::vector<ServiceCall> calls;
  for (int i = 0; i < 24; ++i) {
    calls.push_back(where(Value(tagged("t", i)),
                          i % 2 == 0 ? "Where" : "Other"));
  }
  size_t movable = 0;
  for (const ServiceCall& call : calls) {
    movable += owner_of(call) == "backend-2" && call.operation == "Where";
  }
  ASSERT_GE(movable, 1u);

  auto outcomes = call_packed(calls);
  for (size_t i = 0; i < calls.size(); ++i) {
    if (owner_of(calls[i]) != "backend-2") {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
      EXPECT_EQ(outcomes[i].value().as_string(), "backend-1");
    } else if (calls[i].operation == "Where") {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
      EXPECT_EQ(outcomes[i].value().as_string(), "backend-1");
    } else {
      ASSERT_FALSE(outcomes[i].ok()) << i;
      EXPECT_EQ(resilience::fault_cause(outcomes[i].error()),
                ErrorCode::kTimeout)
          << outcomes[i].error().to_string();
    }
  }
  EXPECT_EQ(proxy_->stats().rerouted_calls, movable);
}

TEST_F(ProxySpliceTest, EnvelopeFromAnotherStackRelaysAndAnswers) {
  Backend& first = add_backend();
  Backend& second = add_backend();
  ProxyOptions options;
  options.rebalance_handler_round = 0;
  start_proxy(std::move(options));

  // Other prefixes, extra declarations (one used inside the content), a
  // different attribute order and quoting, comments and line breaks
  // between the calls, and ids that do not follow document order.
  std::string calls;
  for (int i = 0; i < 12; ++i) {
    const std::string n = std::to_string(i);
    calls += "\n  <!-- call " + n + " -->\n  <m:Call operation='Echo' id='" +
             std::to_string(11 - i) + "' service=\"EchoService\" x:tag=\"t" +
             n + "\"><m:key>k" + n + "&amp;</m:key><m:data>d" + n +
             " &lt;ok&gt;</m:data><x:note>n</x:note></m:Call>";
  }
  const std::string envelope =
      "<?xml version=\"1.0\"?>\n<s:Envelope "
      "xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\" "
      "xmlns:m=\"http://spi.example.org/2006/spi\" xmlns:x=\"urn:ext\">"
      "<s:Header/><s:Body><m:Parallel_Method>" +
      calls + "\n</m:Parallel_Method></s:Body></s:Envelope>";

  http::HttpClient http(transport_, proxy_->endpoint(), {});
  auto response = http.post("/spi", envelope, "text/xml");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  ASSERT_EQ(response.value().status, 200) << response.value().body;
  core::Dispatcher dispatcher;
  auto parsed = dispatcher.parse_response(response.value().body);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  auto routed = dispatcher.route(std::move(parsed).value(), 12);
  ASSERT_TRUE(routed.ok()) << routed.error().to_string();
  for (int i = 0; i < 12; ++i) {
    const CallOutcome& answer = routed.value()[11 - i];  // by origin id
    ASSERT_TRUE(answer.ok()) << answer.error().to_string();
    EXPECT_EQ(answer.value().as_string(), "d" + std::to_string(i) + " <ok>");
  }

  // Each sub-pack re-frames the calls: fresh ids, the other attributes
  // kept, the declaration the content relies on carried onto each call,
  // the comments between calls left behind.
  size_t subpacks = 0;
  for (Backend* backend : {&first, &second}) {
    for (const std::string& body : backend->bodies()) {
      ++subpacks;
      EXPECT_NE(body.find("<spi:Call id=\"0\" service=\"EchoService\" "
                          "operation='Echo' x:tag=\"t"),
                std::string::npos)
          << body;
      EXPECT_NE(body.find("xmlns:x=\"urn:ext\"><m:key>"), std::string::npos)
          << body;
      EXPECT_NE(body.find("xmlns:m=\"http://spi.example.org/2006/spi\""),
                std::string::npos);
      EXPECT_EQ(body.find("<!--"), std::string::npos) << body;
    }
  }
  EXPECT_EQ(subpacks, proxy_->stats().scattered_subpacks);
  EXPECT_GE(subpacks, 2u);
}

}  // namespace
}  // namespace spi::proxy
