// Dispatcher (paper §3.5): the inverse of the Assembler. On the server it
// extracts the M request payloads from one SOAP message and runs them on
// the application stage pool, up to W at a time (W = the pool's width); on
// the client it extracts the M response payloads and routes each back to
// the caller that issued it (by call id, tolerant of server-side
// reordering).
#pragma once

#include <atomic>
#include <optional>

#include "concurrency/thread_pool.hpp"
#include "core/pack_cost.hpp"
#include "core/registry.hpp"
#include "core/wire.hpp"
#include "core/wire_view.hpp"
#include "soap/wsse.hpp"
#include "telemetry/metrics.hpp"

namespace spi::core {

class Dispatcher {
 public:
  struct Stats {
    std::uint64_t envelopes = 0;
    std::uint64_t packed_envelopes = 0;
    /// Calls picked up for execution (a plan counts its steps when its
    /// task runs). Calls refused by the fan-out cap or by the application
    /// queue are not counted here.
    std::uint64_t calls_dispatched = 0;
    std::uint64_t faults_produced = 0;
    /// Calls answered with a DeadlineExceeded fault at the execute-stage
    /// boundary instead of being invoked (resilience/deadline.hpp).
    std::uint64_t deadline_shed = 0;
    /// Calls answered with a CapacityExceeded fault because their index
    /// exceeded EnvelopeLimits::max_fanout — siblings under the cap still
    /// ran (DESIGN.md §11).
    std::uint64_t limit_rejected_calls = 0;
    /// Calls answered with a retryable CapacityExceeded fault because the
    /// application stage's bounded queue admitted none of their message's
    /// claimer tasks (shed-don't-block). A refused plan counts once.
    std::uint64_t queue_full_shed = 0;
  };

  /// `verifier` (optional, unowned): when set, every inbound request
  /// envelope must carry a valid wsse:Security header. `pack_cost` models
  /// the testbed's packed-envelope parse overhead (pack_cost.hpp).
  explicit Dispatcher(soap::WsseVerifier* verifier = nullptr,
                      PackCostModel pack_cost = {})
      : verifier_(verifier), pack_cost_(pack_cost) {}

  /// Installs the resource-governance bounds (DESIGN.md §11). Parse limits
  /// bound the tokenizer on every parse path; envelope limits bound message
  /// shape. max_fanout is enforced per call in execute() — over-cap slots
  /// get a CapacityExceeded fault while siblings under the cap still run.
  void set_limits(const xml::ParseLimits& parse_limits,
                  const soap::EnvelopeLimits& envelope_limits) {
    parse_limits_ = parse_limits;
    envelope_limits_ = envelope_limits;
  }

  const xml::ParseLimits& parse_limits() const { return parse_limits_; }
  const soap::EnvelopeLimits& envelope_limits() const {
    return envelope_limits_;
  }

  /// Server side, step 1: parse + validate a request envelope document.
  /// The DOM path adopts `envelope_xml` (xml::parse_document); pass the
  /// request body with std::move to parse it where it lies.
  Result<wire::ParsedRequest> parse_request(std::string envelope_xml);

  /// Server side, step 2: fan the calls out to `pool`, wait for all of
  /// them (WaitGroup fan-in), and return outcomes in request order. The
  /// calls under the fan-out cap (M') are taken one at a time from a
  /// shared index by k = min(M', pool->thread_count()) claimer tasks, so a
  /// message costs k queue hand-offs, not M'. When `pool` is null one
  /// claimer runs inline on the calling (protocol) thread — the paper's
  /// Figure 1 coupled architecture, kept for the staged-pool ablation
  /// bench.
  std::vector<IndexedOutcome> execute(const wire::ParsedRequest& request,
                                      const ServiceRegistry& registry,
                                      ThreadPool* pool);

  /// Client side, step 1: parse a response envelope document (adopted,
  /// like parse_request's).
  Result<wire::ParsedResponse> parse_response(std::string envelope_xml);

  /// Client side, step 2: route outcomes back into request order.
  /// Validates that ids form exactly {0..expected_calls-1}; a missing or
  /// duplicated id is a protocol error (a caller must never wait forever
  /// on a response the server dropped).
  Result<std::vector<CallOutcome>> route(wire::ParsedResponse response,
                                         size_t expected_calls);

  // --- relay side (the packing proxy, DESIGN.md §15) -------------------------

  /// Views a request envelope in one pass (wire::view_request) under this
  /// dispatcher's limits, counted and charged as parse_request counts and
  /// charges a parse. A plan comes back as kPlan, unread and uncounted:
  /// parse it with parse_request. Verifies no WS-Security header.
  Result<wire::PackView> view_request(std::string_view envelope_xml,
                                      std::string_view shard_param);

  /// Views a response envelope (wire::view_response), counted and charged
  /// as parse_response would be.
  Result<wire::ReplyView> view_response(std::string_view envelope_xml);

  /// route() for a viewed reply: the same id checks and the same
  /// replication of a message-level fault.
  Result<std::vector<wire::RelayedOutcome>> route(wire::ReplyView response,
                                                  size_t expected_calls);

  Stats stats() const;

  /// Registers scrape-time views of this dispatcher's counters into
  /// `registry` (spi_dispatcher_*_total{side=...}). The dispatcher must
  /// outlive the registry's last scrape.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    std::string_view side);

 private:
  /// One message's calls under the fan-out cap, shared by its claimers.
  struct Fanout;

  /// Takes calls from `fanout` one at a time and runs each under its own
  /// CallContext fields, until none is left.
  void run_claimer(Fanout& fanout);

  /// The fault for work the application stage did not admit. A full queue
  /// (not a shutdown) counts `shed` in queue_full_shed.
  Error refuse(const ThreadPool& pool, size_t shed);

  std::vector<IndexedOutcome> execute_plan_request(
      const wire::ParsedRequest& request, const ServiceRegistry& registry,
      ThreadPool* pool);

  soap::WsseVerifier* verifier_;
  PackCostModel pack_cost_;
  xml::ParseLimits parse_limits_;
  soap::EnvelopeLimits envelope_limits_;
  std::atomic<std::uint64_t> envelopes_{0};
  std::atomic<std::uint64_t> packed_envelopes_{0};
  std::atomic<std::uint64_t> calls_dispatched_{0};
  std::atomic<std::uint64_t> faults_produced_{0};
  std::atomic<std::uint64_t> deadline_shed_{0};
  std::atomic<std::uint64_t> limit_rejected_calls_{0};
  std::atomic<std::uint64_t> queue_full_shed_{0};
};

}  // namespace spi::core
