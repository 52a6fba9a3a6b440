// SPI-aware L7 packing proxy (DESIGN.md §15). The paper's travel-agent
// scenario is one client packing M calls to ONE server; production is a
// fleet. This front tier understands the pack instead of treating it as an
// opaque body: it views the incoming Parallel_Method in one pass, routes
// each sub-call by shard key over a consistent-hash ring of backends,
// SPLICES a per-backend Parallel_Method per ring owner out of the calls'
// bytes, scatters the sub-packs concurrently over pooled keep-alive
// connections, and merges the responses' bytes back into one
// Parallel_Response carrying the ORIGINAL call ids. Payloads are never
// decoded into values; only faults are. A backend failure therefore
// faults (or re-routes) only the sub-calls that lived on that backend —
// never the whole pack.
//
// Resilience at the hop: each backend is gated by its own CircuitBreaker
// (shared CircuitBreakerSet) and an optional per-backend AIMD adaptive
// limiter; a shed/failed sub-pack is re-packed once more onto surviving
// ring members (route_excluding) within the propagated deadline. When
// EVERY backend sheds, the proxy answers 503 and surfaces the MAXIMUM
// backend Retry-After to the origin client — the fleet is ready again
// only when its slowest member is.
//
// Headers cross the hop application-aware, not byte-copied: the origin
// <spi:Trace> is continued as a child context on every sub-pack (same
// trace id, fresh parent id), the origin <spi:Deadline> is re-anchored at
// parse and re-serialized as the REMAINING budget at sub-pack assembly
// (the proxy's own elapsed time is already subtracted), and wire codecs
// are negotiated independently per hop — the client<->proxy coding and
// the proxy<->backend coding can differ message by message.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "codec/registry.hpp"
#include "codec/wire_codec.hpp"
#include "concurrency/adaptive_limiter.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/assembler.hpp"
#include "core/client.hpp"
#include "core/dispatcher.hpp"
#include "http/server.hpp"
#include "proxy/hash_ring.hpp"
#include "resilience/circuit_breaker.hpp"
#include "resilience/retry.hpp"
#include "telemetry/metrics.hpp"

namespace spi::proxy {

struct ProxyOptions {
  /// Initial backend fleet (the ring can change at runtime via
  /// add_backend/remove_backend).
  std::vector<net::Endpoint> backends;

  /// Virtual nodes per ring member (hash_ring.hpp).
  size_t virtual_nodes = 64;

  /// Parameter whose value shards a call. Empty (the default) shards by
  /// "service/operation" — all GetWeather calls land on one backend
  /// (operation affinity); set it to e.g. "city" to spread one hot
  /// operation by argument instead. Calls without the parameter fall back
  /// to operation affinity.
  std::string shard_param;

  /// HTTP request target of both the proxy's own endpoint and the
  /// backend SPI endpoints.
  std::string target = "/spi";

  /// Protocol-stage pool of the proxy's own HTTP server.
  size_t protocol_threads = 8;
  size_t reactor_threads = 1;

  /// Workers scattering sub-packs on the BLOCKING fallback path (a
  /// transport without non-blocking connect). A handler thread scatters
  /// its LAST group inline, so even a full pool cannot deadlock a
  /// message. When the transport supports non-blocking connect the proxy
  /// scatters through its reactor-driven async client instead — no pool
  /// thread per sub-pack, and 0 is a fine value here.
  size_t scatter_threads = 8;

  /// Idle keep-alive connections retained per backend.
  size_t max_pooled_connections_per_backend = 8;

  /// Re-pack failed/shed sub-calls once onto surviving ring members
  /// before answering. Off = partial failures surface immediately as
  /// per-call faults (the chaos bench compares both).
  bool reroute_on_failure = true;

  /// K=2 sub-pack balancing: when a message scatters into exactly TWO
  /// sub-packs, a backend's application pool executes each sub-pack in
  /// rounds of this many calls, so end-to-end latency is governed by the
  /// LARGER group's round count. Tail calls move from the larger onto the
  /// less-loaded group whenever that lowers the maximum round count —
  /// trading strict shard affinity for one dispatch round. 0 disables.
  size_t rebalance_handler_round = 8;

  /// Per-backend circuit breaking (one CircuitBreakerSet shared by every
  /// backend client, so observations aggregate per endpoint).
  resilience::CircuitBreakerOptions breaker;

  /// Per-backend AIMD limiter learning how many concurrent sub-packs a
  /// backend usefully runs; at the learned limit the proxy sheds locally
  /// (and reroutes) instead of piling on. Disabled when unset.
  std::optional<AdaptiveLimiterOptions> adaptive_limit;

  /// Message-level retry policy of each backend client. Default keeps
  /// max_attempts = 1: the proxy prefers REROUTING to a survivor over
  /// replaying into a sick backend.
  resilience::RetryOptions backend_retry;

  /// Bound on each backend response read (clamped further by the
  /// propagated deadline).
  Duration receive_timeout = kNoTimeout;

  /// Retry-After the proxy advertises when it sheds on its own account
  /// (no backend hint to relay).
  Duration retry_after_hint = std::chrono::milliseconds(50);

  /// proxy->backend hop codec: request coding applied to sub-packs and
  /// codings advertised for backend responses. Negotiated independently
  /// of whatever the origin client speaks (DESIGN.md §14).
  std::string backend_request_codec = "identity";
  std::vector<std::string> backend_accept_codecs;

  /// Codec registry for both hops (borrowed). Null = builtin().
  const codec::CodecRegistry* codecs = nullptr;

  /// Metrics registry (borrowed). Null = the proxy owns one; either way
  /// it is served at GET /metrics.
  telemetry::MetricsRegistry* metrics = nullptr;

  http::ParserLimits http_limits;
  xml::ParseLimits parse_limits;
  soap::EnvelopeLimits envelope_limits;
};

class PackingProxy {
 public:
  struct Stats {
    std::uint64_t requests = 0;           ///< POST messages handled
    std::uint64_t scattered_subpacks = 0; ///< per-backend sub-packs sent
    std::uint64_t reroutes = 0;           ///< sub-packs re-packed onto survivors
    std::uint64_t rerouted_calls = 0;     ///< sub-calls that moved backend
    std::uint64_t all_backend_sheds = 0;  ///< 503s because every backend shed
    std::uint64_t deadline_shed = 0;      ///< messages dead on arrival
    std::uint64_t local_sheds = 0;        ///< sub-packs shed by a backend's
                                          ///< adaptive limiter at the proxy
    std::uint64_t rebalanced_calls = 0;   ///< calls moved by K=2 balancing
  };

  PackingProxy(net::Transport& transport, net::Endpoint at,
               ProxyOptions options = {});
  ~PackingProxy();

  PackingProxy(const PackingProxy&) = delete;
  PackingProxy& operator=(const PackingProxy&) = delete;

  Status start();
  void stop();

  /// Actual bound endpoint (valid after start()).
  net::Endpoint endpoint() const;

  /// Ring membership at runtime: scaling the fleet moves only the keys
  /// the changed member owns. Removing a backend drains its connection
  /// pool; in-flight sub-packs to it finish (or fault) normally.
  void add_backend(const net::Endpoint& backend);
  void remove_backend(const net::Endpoint& backend);
  std::vector<net::Endpoint> backends() const;

  /// The shard key handle() derives for a call — exposed so tests and
  /// benches can predict placements without re-implementing the rule.
  /// handle() reads the same key off the wire (wire::CallView::route_key)
  /// without decoding the call.
  std::string route_key(const core::ServiceCall& call) const;

  Stats stats() const;
  telemetry::MetricsRegistry& metrics() { return *metrics_; }
  resilience::CircuitBreakerSet& breakers() { return breakers_; }

  /// True when sub-packs scatter through the reactor-driven async client
  /// (transport supports non-blocking connect) instead of the thread pool.
  bool async_scatter() const { return async_http_ != nullptr; }

 private:
  /// One ring member: its SPI client (assembly/parse/resilience) plus a
  /// free-list of warm keep-alive HTTP connections the scatter legs
  /// check out, so concurrent sub-packs to one backend each ride their
  /// own connection and none of them dials per message.
  struct Backend {
    net::Endpoint endpoint;
    std::unique_ptr<core::SpiClient> client;
    std::unique_ptr<AdaptiveLimiter> limiter;  // null = unlimited
    std::mutex pool_mutex;
    std::vector<std::unique_ptr<http::HttpClient>> idle;
    std::atomic<std::uint64_t> subpacks{0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> faults{0};
  };

  /// One per-backend batch of an incoming pack: the sub-calls this
  /// backend owns, with their positions in the origin message kept so the
  /// merge lands every outcome back in its original slot (original ids).
  struct Group {
    Backend* backend = nullptr;
    std::vector<size_t> slots;  ///< positions in the origin message
    /// The sub-calls, viewed in the origin envelope (calls[i] sits at
    /// slots[i]).
    std::vector<core::wire::CallView> calls;
    /// Scatter result: outcomes[i] answers slots[i]; it also holds the
    /// backend reply bytes the outcomes point into.
    core::SpiClient::RelayedResult result{core::RelayedPack{}};
    Duration retry_after = Duration::zero();
    bool shed = false;  ///< backend (or local limiter) shed the sub-pack
  };

  /// Consumes the request body: it is viewed where it lies, and the
  /// sub-packs and the merge copy their bytes out of it.
  http::Response handle(http::Request&& request);

  /// A Remote_Execution plan rides whole to the ring member its first
  /// step names, through the DOM path (plans are small dependency chains).
  http::Response forward_plan(const core::wire::ParsedRequest& plan,
                              const telemetry::TraceContext& forward_trace,
                              const codec::WireCodec& response_codec);
  http::Response handle_metrics();
  http::Response handle_healthz();

  /// Sends one group: limiter gate, pooled connection checkout,
  /// execute_packed_on, shed classification. Fills group.result.
  void scatter_group(Group& group, const resilience::Deadline& deadline,
                     const telemetry::TraceContext& trace,
                     core::PackMode mode);

  /// Runs every group to completion. Async mode: every group is issued
  /// as one execute_packed_async on the shared reactor runtime and the
  /// handler thread blocks ONCE for the whole fan-out (K sub-packs cost
  /// zero pool threads). Fallback: all but the last group on the scatter
  /// pool (inline when saturated), the last inline on the handler thread.
  void scatter_all(std::vector<Group>& groups,
                   const resilience::Deadline& deadline,
                   const telemetry::TraceContext& trace, core::PackMode mode);
  void scatter_all_async(std::vector<Group>& groups,
                         const resilience::Deadline& deadline,
                         const telemetry::TraceContext& trace,
                         core::PackMode mode);

  /// K=2 balancing (Options::rebalance_handler_round): moves tail calls
  /// from the larger of exactly two groups onto the smaller when that
  /// lowers the maximum handler-round count of the pair.
  void rebalance_two_groups(std::vector<Group>& groups);

  /// The second pass: sub-calls whose outcome is retryable-and-safe are
  /// re-packed onto surviving ring members (route_excluding the failed
  /// set) and their slots in `outcomes` overwritten on success. The
  /// re-packs land in `regroups`, which must outlive `outcomes` (the
  /// survivors' reply bytes live there).
  void reroute_failures(std::vector<Group>& groups,
                        std::vector<core::wire::RelayedOutcome>& outcomes,
                        std::vector<Group>& regroups,
                        const resilience::Deadline& deadline,
                        const telemetry::TraceContext& trace,
                        core::PackMode mode);

  /// Backend bookkeeping once a sub-pack settles: faults counted, shed
  /// classified.
  static void settle_group(Group& group, core::SpiClient::RelayedResult result);

  std::string encode_response(const codec::WireCodec& codec,
                              std::string plain, std::string* applied);

  std::unique_ptr<Backend> make_backend(const net::Endpoint& endpoint);
  /// Rebuilds by_member_ after a membership change (fleet lock held).
  void index_members();
  std::unique_ptr<http::HttpClient> checkout_connection(Backend& backend);
  void checkin_connection(Backend& backend,
                          std::unique_ptr<http::HttpClient> http);

  const codec::WireCodec& negotiate_response_codec(
      const http::Request& request);

  net::Transport& transport_;
  ProxyOptions options_;
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_;
  const codec::CodecRegistry* codecs_;
  resilience::CircuitBreakerSet breakers_;
  core::Dispatcher dispatcher_;  // client<->proxy hop: view requests
  core::Assembler assembler_;    // client<->proxy hop: merge responses
  std::string retry_after_value_;

  /// Async scatter runtime (DESIGN.md §16): one reactor loop thread and
  /// one AsyncHttpClient shared by every backend SpiClient. Present only
  /// when the transport supports non-blocking connect. Declared before
  /// the fleet so backends (whose in-flight async exchanges reference the
  /// client) are destroyed first.
  std::unique_ptr<Reactor> async_reactor_;
  std::unique_ptr<http::AsyncHttpClient> async_http_;

  mutable std::shared_mutex fleet_mutex_;
  HashRing ring_;
  std::map<net::Endpoint, std::unique_ptr<Backend>> fleet_;
  /// fleet_'s backends in ring_.members() order, so a routed call finds
  /// its Backend by ring_.route_index() alone.
  std::vector<Backend*> by_member_;
  /// Removed backends parked until destruction: scatter legs hold raw
  /// Backend pointers past the fleet lock, so membership changes must
  /// never free a Backend mid-flight.
  std::vector<std::unique_ptr<Backend>> retired_;

  std::unique_ptr<ThreadPool> scatter_pool_;
  std::unique_ptr<http::HttpServer> http_server_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> scattered_subpacks_{0};
  std::atomic<std::uint64_t> reroutes_{0};
  std::atomic<std::uint64_t> rerouted_calls_{0};
  std::atomic<std::uint64_t> all_backend_sheds_{0};
  std::atomic<std::uint64_t> deadline_shed_{0};
  std::atomic<std::uint64_t> local_sheds_{0};
  std::atomic<std::uint64_t> rebalanced_calls_{0};

  telemetry::Counter* codec_fallbacks_ = nullptr;
  std::map<std::string, telemetry::Counter*, std::less<>>
      codec_negotiations_;
  telemetry::Histogram* fanout_width_ = nullptr;
  telemetry::Histogram* subpacks_per_request_ = nullptr;
};

}  // namespace spi::proxy
