#include "core/dispatcher.hpp"

#include <algorithm>

#include "concurrency/wait_group.hpp"
#include "core/call_context.hpp"

namespace spi::core {

Result<wire::ParsedRequest> Dispatcher::parse_request(
    std::string envelope_xml) {
  const size_t wire_bytes = envelope_xml.size();
  auto parsed_envelope = soap::Envelope::parse(
      std::move(envelope_xml), parse_limits_, envelope_limits_);
  if (!parsed_envelope.ok()) return parsed_envelope.error();
  const soap::Envelope& envelope = parsed_envelope.value();

  if (verifier_) {
    const xml::Element* security = nullptr;
    for (const xml::Element* block : envelope.header_blocks) {
      if (block->local_name() == "Security") {
        security = block;
        break;
      }
    }
    if (!security) {
      return Error(ErrorCode::kInvalidArgument,
                   "wsse: request has no Security header");
    }
    if (Status verified = verifier_->verify(*security, soap::iso8601_now());
        !verified.ok()) {
      return verified.error();
    }
  }

  auto parsed = wire::parse_request(envelope);
  if (parsed.ok()) {
    envelopes_.fetch_add(1, std::memory_order_relaxed);
    if (parsed.value().packed) {
      packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
      pack_cost_.charge(wire_bytes, parsed.value().calls.size());
    }
    if (auto trace = telemetry::TraceContext::from_header_blocks(
            envelope.header_blocks)) {
      parsed.value().trace = std::move(*trace);
    }
    if (auto deadline = resilience::Deadline::from_header_blocks(
            envelope.header_blocks, RealClock::instance().now())) {
      parsed.value().deadline = *deadline;
    }
  }
  return parsed;
}

struct Dispatcher::Fanout {
  const wire::ParsedRequest& request;
  const ServiceRegistry& registry;
  std::vector<std::optional<CallOutcome>>& slots;
  /// Calls under the fan-out cap: indices [0, admitted) are claimed.
  size_t admitted;
  std::atomic<size_t> next{0};
  /// Fan-in of the posted claimers; unused when the claimer runs inline.
  WaitGroup claimers{};
};

void Dispatcher::run_claimer(Fanout& fanout) {
  const wire::ParsedRequest& request = fanout.request;
  CallContext context;
  context.trace = request.trace;
  context.deadline = request.deadline;
  context.fanout = request.calls.size();
  CallContextScope scope(context);
  while (true) {
    const size_t i = fanout.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= fanout.admitted) return;
    calls_dispatched_.fetch_add(1, std::memory_order_relaxed);
    const ServiceCall& call = request.calls[i].call;
    context.call_id = request.calls[i].id;
    context.service = call.service;
    context.operation = call.operation;
    // Execute-stage deadline shed: checked per call at the moment a
    // claimer picks it up, so a batch whose budget drains while earlier
    // calls run (or while queued behind a saturated pool) stops burning
    // handler time. The fault names the stage; RetryPolicy treats it as
    // not-executed.
    if (request.deadline.expired(RealClock::instance().now())) {
      deadline_shed_.fetch_add(1, std::memory_order_relaxed);
      fanout.slots[i] = CallOutcome(Error(
          ErrorCode::kDeadlineExceeded, "deadline expired before execute stage"));
    } else {
      fanout.slots[i] = fanout.registry.invoke(call);
    }
  }
}

Error Dispatcher::refuse(const ThreadPool& pool, size_t shed) {
  if (!pool.accepting()) {
    return Error(ErrorCode::kShutdown, "application stage is shut down");
  }
  queue_full_shed_.fetch_add(shed, std::memory_order_relaxed);
  return Error(ErrorCode::kCapacityExceeded, "application stage queue is full");
}

std::vector<IndexedOutcome> Dispatcher::execute(
    const wire::ParsedRequest& request, const ServiceRegistry& registry,
    ThreadPool* pool) {
  if (request.kind == wire::ParsedRequest::Kind::kPlan) {
    return execute_plan_request(request, registry, pool);
  }
  const size_t n = request.calls.size();
  std::vector<std::optional<CallOutcome>> slots(n);

  // Fan-out cap (DESIGN.md §11): calls past max_fanout are answered with a
  // per-call CapacityExceeded fault — retryable-not-executed, so the client
  // re-packs just those — while siblings under the cap execute normally.
  // A whole-message rejection would punish the healthy calls too.
  const size_t fanout_cap = envelope_limits_.max_fanout;
  Fanout fanout{request, registry, slots, std::min(n, fanout_cap)};
  limit_rejected_calls_.fetch_add(n - fanout.admitted,
                                  std::memory_order_relaxed);
  if (fanout.admitted < n) {
    const Error over_cap(ErrorCode::kCapacityExceeded,
                         "envelope limit exceeded: fan-out (" +
                             std::to_string(n) + " > " +
                             std::to_string(fanout_cap) + " calls)");
    for (size_t i = fanout.admitted; i < n; ++i) {
      slots[i] = CallOutcome(over_cap);
    }
  }

  if (pool == nullptr) {
    // Coupled mode (Figure 1): one claimer, on the protocol thread.
    run_claimer(fanout);
  } else {
    // Staged mode (Figure 2): k = min(M', W) claimers on the application
    // stage. More would only queue behind the W workers; each hand-off
    // costs a queue push, a wake-up and a fan-in lock. The protocol thread
    // sleeps on the WaitGroup until the last claimer lands.
    const size_t claimers = std::min(fanout.admitted, pool->thread_count());
    fanout.claimers.add(claimers);
    // try_submit, not submit: when the application queue is full the
    // protocol thread must not block on its sibling stage (SEDA
    // shed-don't-block). One admitted claimer runs every call.
    size_t posted = 0;
    while (posted < claimers && pool->try_submit([this, &fanout] {
             run_claimer(fanout);
             fanout.claimers.done();
           })) {
      ++posted;
    }
    for (size_t refused = posted; refused < claimers; ++refused) {
      fanout.claimers.done();
    }
    if (posted == 0 && fanout.admitted > 0) {
      // No claimer admitted: every call is shed on its own with a
      // retryable CapacityExceeded fault.
      const Error refusal = refuse(*pool, fanout.admitted);
      for (size_t i = 0; i < fanout.admitted; ++i) {
        slots[i] = CallOutcome(refusal);
      }
    }
    fanout.claimers.wait();
  }

  std::vector<IndexedOutcome> outcomes;
  outcomes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    CallOutcome outcome = std::move(slots[i]).value_or(
        CallOutcome(Error(ErrorCode::kInternal, "call produced no outcome")));
    if (!outcome.ok()) {
      faults_produced_.fetch_add(1, std::memory_order_relaxed);
    }
    outcomes.push_back(IndexedOutcome{request.calls[i].id, std::move(outcome)});
  }
  return outcomes;
}

std::vector<IndexedOutcome> Dispatcher::execute_plan_request(
    const wire::ParsedRequest& request, const ServiceRegistry& registry,
    ThreadPool* pool) {
  const size_t n = request.plan.steps.size();

  // A plan is a dependency chain, so a step past the fan-out cap poisons
  // everything after it anyway — reject the whole plan with per-step
  // CapacityExceeded faults rather than running a prefix whose results
  // would be discarded.
  if (n > envelope_limits_.max_fanout) {
    limit_rejected_calls_.fetch_add(n, std::memory_order_relaxed);
    faults_produced_.fetch_add(n, std::memory_order_relaxed);
    std::vector<IndexedOutcome> rejected;
    rejected.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rejected.push_back(IndexedOutcome{
          static_cast<std::uint32_t>(i),
          CallOutcome(Error(
              ErrorCode::kCapacityExceeded,
              "envelope limit exceeded: fan-out (" + std::to_string(n) +
                  " > " + std::to_string(envelope_limits_.max_fanout) +
                  " plan steps)"))});
    }
    return rejected;
  }
  CallContext context;
  context.trace = request.trace;
  context.fanout = n;

  std::vector<IndexedOutcome> outcomes;
  auto run_plan = [&] {
    calls_dispatched_.fetch_add(n, std::memory_order_relaxed);
    CallContextScope scope(context);
    outcomes = execute_plan(request.plan, registry);
  };
  if (pool == nullptr) {
    // Coupled mode: the chain runs on the protocol thread.
    run_plan();
  } else {
    // Staged mode: a plan is inherently sequential, so it occupies ONE
    // application-stage worker; the protocol thread sleeps meanwhile.
    WaitGroup pending;
    pending.add(1);
    bool accepted = pool->try_submit([&] {
      run_plan();
      pending.done();
    });
    if (!accepted) {
      const Error refusal = refuse(*pool, 1);
      for (size_t i = 0; i < n; ++i) {
        outcomes.push_back(IndexedOutcome{static_cast<std::uint32_t>(i),
                                          CallOutcome(refusal)});
      }
      pending.done();
    }
    pending.wait();
  }

  for (const IndexedOutcome& outcome : outcomes) {
    if (!outcome.outcome.ok()) {
      faults_produced_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return outcomes;
}

Result<wire::ParsedResponse> Dispatcher::parse_response(
    std::string envelope_xml) {
  const size_t wire_bytes = envelope_xml.size();
  auto parsed_envelope = soap::Envelope::parse(std::move(envelope_xml));
  if (!parsed_envelope.ok()) return parsed_envelope.error();
  const soap::Envelope& envelope = parsed_envelope.value();
  auto parsed = wire::parse_response(envelope);
  if (parsed.ok()) {
    envelopes_.fetch_add(1, std::memory_order_relaxed);
    if (parsed.value().packed) {
      packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
      pack_cost_.charge(wire_bytes, parsed.value().outcomes.size());
    }
    if (auto trace = telemetry::TraceContext::from_header_blocks(
            envelope.header_blocks)) {
      parsed.value().trace = std::move(*trace);
    }
  }
  return parsed;
}

namespace {

/// Dispatcher::route over either kind of indexed outcome.
template <class Indexed>
auto route_indexed(std::vector<Indexed>& outcomes, bool packed,
                   size_t expected_calls)
    -> Result<std::vector<decltype(Indexed::outcome)>> {
  using Outcome = decltype(Indexed::outcome);
  // A message-level Fault (traditional single-Fault body answering a
  // packed request — e.g. a handler-chain veto or admission rejection)
  // applies to every call in the batch.
  if (!packed && outcomes.size() == 1 && !outcomes.front().outcome.ok() &&
      expected_calls != 1) {
    std::vector<Outcome> replicated;
    replicated.reserve(expected_calls);
    for (size_t i = 0; i < expected_calls; ++i) {
      replicated.push_back(outcomes.front().outcome);
    }
    return replicated;
  }
  if (outcomes.size() != expected_calls) {
    return Error(ErrorCode::kProtocolError,
                 "expected " + std::to_string(expected_calls) +
                     " responses, got " + std::to_string(outcomes.size()));
  }
  std::vector<std::optional<Outcome>> slots(expected_calls);
  for (Indexed& indexed : outcomes) {
    if (indexed.id >= expected_calls) {
      return Error(ErrorCode::kProtocolError,
                   "response id " + std::to_string(indexed.id) +
                       " out of range");
    }
    if (slots[indexed.id].has_value()) {
      return Error(ErrorCode::kProtocolError,
                   "duplicate response id " + std::to_string(indexed.id));
    }
    slots[indexed.id] = std::move(indexed.outcome);
  }
  std::vector<Outcome> ordered;
  ordered.reserve(expected_calls);
  for (auto& slot : slots) {
    ordered.push_back(std::move(*slot));  // all present: counts matched
  }
  return ordered;
}

}  // namespace

Result<std::vector<CallOutcome>> Dispatcher::route(
    wire::ParsedResponse response, size_t expected_calls) {
  return route_indexed(response.outcomes, response.packed, expected_calls);
}

Result<wire::PackView> Dispatcher::view_request(std::string_view envelope_xml,
                                                std::string_view shard_param) {
  auto view = wire::view_request(envelope_xml, parse_limits_,
                                 envelope_limits_, shard_param);
  if (view.ok() && view.value().kind != wire::ParsedRequest::Kind::kPlan) {
    envelopes_.fetch_add(1, std::memory_order_relaxed);
    if (view.value().packed) {
      packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
      pack_cost_.charge(envelope_xml.size(), view.value().calls.size());
    }
  }
  return view;
}

Result<wire::ReplyView> Dispatcher::view_response(
    std::string_view envelope_xml) {
  // parse_response's bounds: the defaults, whatever set_limits installed.
  auto view = wire::view_response(envelope_xml);
  if (view.ok()) {
    envelopes_.fetch_add(1, std::memory_order_relaxed);
    if (view.value().packed) {
      packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
      pack_cost_.charge(envelope_xml.size(), view.value().outcomes.size());
    }
  }
  return view;
}

Result<std::vector<wire::RelayedOutcome>> Dispatcher::route(
    wire::ReplyView response, size_t expected_calls) {
  return route_indexed(response.outcomes, response.packed, expected_calls);
}

Dispatcher::Stats Dispatcher::stats() const {
  Stats s;
  s.envelopes = envelopes_.load(std::memory_order_relaxed);
  s.packed_envelopes = packed_envelopes_.load(std::memory_order_relaxed);
  s.calls_dispatched = calls_dispatched_.load(std::memory_order_relaxed);
  s.faults_produced = faults_produced_.load(std::memory_order_relaxed);
  s.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  s.limit_rejected_calls =
      limit_rejected_calls_.load(std::memory_order_relaxed);
  s.queue_full_shed = queue_full_shed_.load(std::memory_order_relaxed);
  return s;
}

void Dispatcher::bind_metrics(telemetry::MetricsRegistry& registry,
                              std::string_view side) {
  std::string labels = "side=\"" + std::string(side) + "\"";
  auto view = [](const std::atomic<std::uint64_t>& counter) {
    return [&counter]() -> double {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
  };
  registry.add_callback("spi_dispatcher_envelopes_total",
                        "Envelopes parsed by the dispatcher",
                        telemetry::CallbackKind::kCounter, labels,
                        view(envelopes_));
  registry.add_callback("spi_dispatcher_packed_envelopes_total",
                        "Of which packed (Parallel_Method/Response)",
                        telemetry::CallbackKind::kCounter, labels,
                        view(packed_envelopes_));
  registry.add_callback("spi_dispatcher_calls_total",
                        "Calls fanned out to the application stage",
                        telemetry::CallbackKind::kCounter, labels,
                        view(calls_dispatched_));
  registry.add_callback("spi_dispatcher_faults_total",
                        "Per-call faults produced by handler execution",
                        telemetry::CallbackKind::kCounter, labels,
                        view(faults_produced_));
  registry.add_callback(
      "spi_dispatcher_fanout_rejected_calls_total",
      "Calls rejected with CapacityExceeded by the fan-out cap",
      telemetry::CallbackKind::kCounter, labels, view(limit_rejected_calls_));
  registry.add_callback(
      "spi_dispatcher_queue_full_shed_total",
      "Calls shed with CapacityExceeded because the application queue was "
      "full",
      telemetry::CallbackKind::kCounter, labels, view(queue_full_shed_));
}

}  // namespace spi::core
