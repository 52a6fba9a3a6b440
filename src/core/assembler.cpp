#include "core/assembler.hpp"

#include "resilience/deadline.hpp"
#include "telemetry/trace.hpp"

namespace spi::core {

namespace {

/// One Writer per thread, reused across messages for its open-tag stack.
/// Its output buffer IS the envelope's framing: open_envelope() writes the
/// declaration and header blocks, the wire layer writes the body after
/// them, and take_gathered() hands the buffer and the splices to the
/// caller. Each message therefore allocates one string, sized up front; a
/// payload byte is escaped into it once, or not copied at all when its
/// string is spliced. thread_local because an Assembler is shared across
/// client threads.
xml::Writer& envelope_writer() {
  thread_local xml::Writer writer;
  return writer;
}

}  // namespace

xml::Writer& Assembler::open_envelope(xml::Reservation body) {
  envelopes_.fetch_add(1, std::memory_order_relaxed);
  // The thread's active trace (telemetry/trace.hpp) rides along as a
  // spi:Trace header block: clients inject it, servers echo it.
  const telemetry::TraceContext* trace = telemetry::current_trace();
  if (trace && !trace->valid()) trace = nullptr;
  // Likewise the thread's active deadline (resilience/deadline.hpp): the
  // remaining budget travels as a spi:Deadline header block so the server
  // can shed work nobody is waiting for. to_header_block() is empty when
  // there is no deadline to ship.
  std::string deadline_header;
  if (const resilience::Deadline* deadline = resilience::current_deadline()) {
    deadline_header =
        deadline->to_header_block(RealClock::instance().now());
  }
  std::vector<std::string> headers;
  if (wsse_) headers.push_back(wsse_->make_header_block(soap::iso8601_now()));
  if (trace) headers.push_back(trace->to_header_block());
  if (!deadline_header.empty()) headers.push_back(std::move(deadline_header));
  xml::Writer& writer = envelope_writer();
  writer.reset();
  writer.reserve({.copied = soap::envelope_capacity(body.copied, headers),
                  .spliceable = body.spliceable});
  soap::open_envelope(writer, headers);
  return writer;
}

bool Assembler::frame_packed(size_t calls, PackMode mode) {
  if (calls == 0) {
    throw SpiError(ErrorCode::kInvalidArgument, "empty call batch");
  }
  switch (mode) {
    case PackMode::kPacked: return true;
    case PackMode::kSingle:
      if (calls > 1) {
        throw SpiError(ErrorCode::kInvalidArgument,
                       "PackMode::kSingle with a multi-call batch");
      }
      return false;
    case PackMode::kAuto: return calls > 1;
  }
  return true;
}

Gathered Assembler::assemble_request(std::span<const ServiceCall> calls,
                                     PackMode mode) {
  const bool packed = frame_packed(calls.size(), mode);
  calls_.fetch_add(calls.size(), std::memory_order_relaxed);
  if (packed) {
    packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
    xml::Writer& writer = open_envelope(wire::estimate_request_bytes(calls));
    wire::write_packed_request(writer, calls);
    Gathered envelope = writer.take_gathered();
    // The modeled stack handles every byte, spliced ones included.
    pack_cost_.charge(envelope.size(), calls.size());
    return envelope;
  }
  xml::Writer& writer =
      open_envelope(wire::estimate_request_bytes(calls.subspan(0, 1)));
  wire::write_single_request(writer, calls.front());
  return writer.take_gathered();
}

std::string Assembler::assemble_request(std::span<const wire::CallView> calls,
                                        PackMode mode) {
  const bool packed = frame_packed(calls.size(), mode);
  calls_.fetch_add(calls.size(), std::memory_order_relaxed);
  if (packed) packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
  xml::Writer& writer =
      open_envelope({.copied = wire::estimate_spliced_request_bytes(calls)});
  wire::write_spliced_request(writer, calls, packed);
  std::string envelope = writer.take();
  if (packed) pack_cost_.charge(envelope.size(), calls.size());
  return envelope;
}

std::string Assembler::assemble_plan(const RemotePlan& plan) {
  if (Status valid = plan.validate(); !valid.ok()) {
    throw SpiError(valid.error());
  }
  calls_.fetch_add(plan.steps.size(), std::memory_order_relaxed);
  packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
  xml::Writer& writer = open_envelope({});
  write_plan(writer, plan);
  std::string envelope = writer.take();
  pack_cost_.charge(envelope.size(), plan.steps.size());
  return envelope;
}

Gathered Assembler::assemble_response(
    std::span<const IndexedOutcome> outcomes, const ServiceCall& single_call,
    bool packed) {
  if (outcomes.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "empty outcome batch");
  }
  calls_.fetch_add(outcomes.size(), std::memory_order_relaxed);
  if (packed) {
    packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
    xml::Writer& writer =
        open_envelope(wire::estimate_response_bytes(outcomes));
    wire::write_packed_response(writer, outcomes);
    Gathered envelope = writer.take_gathered();
    pack_cost_.charge(envelope.size(), outcomes.size());
    return envelope;
  }
  if (outcomes.size() != 1) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "traditional response with multiple outcomes");
  }
  xml::Writer& writer =
      open_envelope(wire::estimate_response_bytes(outcomes.subspan(0, 1)));
  wire::write_single_response(writer, single_call, outcomes.front().outcome);
  return writer.take_gathered();
}

std::string Assembler::assemble_response(
    std::span<const wire::RelayedOutcome> outcomes,
    std::span<const wire::CallView> calls, bool packed) {
  if (outcomes.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "empty outcome batch");
  }
  if (!packed && outcomes.size() != 1) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "traditional response with multiple outcomes");
  }
  calls_.fetch_add(outcomes.size(), std::memory_order_relaxed);
  if (packed) packed_envelopes_.fetch_add(1, std::memory_order_relaxed);
  xml::Writer& writer =
      open_envelope({.copied = wire::estimate_spliced_response_bytes(outcomes)});
  wire::write_spliced_response(writer, outcomes, calls, packed);
  std::string envelope = writer.take();
  if (packed) pack_cost_.charge(envelope.size(), outcomes.size());
  return envelope;
}

Assembler::Stats Assembler::stats() const {
  Stats s;
  s.envelopes = envelopes_.load(std::memory_order_relaxed);
  s.packed_envelopes = packed_envelopes_.load(std::memory_order_relaxed);
  s.calls = calls_.load(std::memory_order_relaxed);
  return s;
}

void Assembler::bind_metrics(telemetry::MetricsRegistry& registry,
                             std::string_view side) {
  std::string labels = "side=\"" + std::string(side) + "\"";
  auto view = [](const std::atomic<std::uint64_t>& counter) {
    return [&counter]() -> double {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
  };
  registry.add_callback("spi_assembler_envelopes_total",
                        "Envelopes assembled",
                        telemetry::CallbackKind::kCounter, labels,
                        view(envelopes_));
  registry.add_callback("spi_assembler_packed_envelopes_total",
                        "Of which packed (Parallel_Method/Response)",
                        telemetry::CallbackKind::kCounter, labels,
                        view(packed_envelopes_));
  registry.add_callback("spi_assembler_calls_total",
                        "Call payloads carried in assembled envelopes",
                        telemetry::CallbackKind::kCounter, labels,
                        view(calls_));
}

}  // namespace spi::core
