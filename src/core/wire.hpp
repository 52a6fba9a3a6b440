// SPI wire format (DESIGN.md §6): serialization and parsing of service
// calls, both the traditional one-call-per-message form and the packed
// Parallel_Method form from the paper's Figure 4. The Assembler
// (assembler.hpp) and Dispatcher (dispatcher.hpp) are thin, stateful
// layers over these pure functions, which keeps the format round-trip
// property-testable in isolation.
//
// Packed request body:
//   <spi:Parallel_Method>
//     <spi:Call id="0" service="S" operation="O"> ...param accessors... </spi:Call>
//     ...
//   </spi:Parallel_Method>
//
// Packed response body:
//   <spi:Parallel_Response>
//     <spi:CallResponse id="0"> <return .../> | <SOAP-ENV:Fault>...</...> </spi:CallResponse>
//     ...
//   </spi:Parallel_Response>
//
// Traditional request body:  <spi:{Operation} spi:service="S"> ...params... </spi:{Operation}>
// Traditional response body: <spi:{Operation}Response> <return .../> </spi:{Operation}Response>
// (or a plain <SOAP-ENV:Fault> body entry on failure.)
#pragma once

#include <span>
#include <string>

#include "core/call.hpp"
#include "core/remote_plan.hpp"
#include "resilience/deadline.hpp"
#include "soap/envelope.hpp"
#include "telemetry/trace.hpp"
#include "xml/writer.hpp"

namespace spi::core::wire {

// --- request side -----------------------------------------------------------

/// Serializes one call as a traditional body entry.
std::string serialize_single_request(const ServiceCall& call);

/// Serializes calls[i] with id=i into one Parallel_Method body entry.
std::string serialize_packed_request(std::span<const ServiceCall> calls);

/// Appending variants for callers that reuse one Writer across messages
/// (Assembler steady state): identical output, no fresh buffer per call.
void write_single_request(xml::Writer& writer, const ServiceCall& call);
void write_packed_request(xml::Writer& writer,
                          std::span<const ServiceCall> calls);

/// Size estimate for the serialized request body (names + markup overhead
/// + payload, its spliceable strings counted apart) — a Writer reserve()
/// hint, not a bound.
xml::Reservation estimate_request_bytes(std::span<const ServiceCall> calls);

/// What a server found in a request envelope body.
struct ParsedRequest {
  enum class Kind {
    kSingle,  // traditional one-operation message
    kPacked,  // Parallel_Method (the pack interface)
    kPlan,    // Remote_Execution (the remote-execution interface)
  };
  Kind kind = Kind::kSingle;
  bool packed = false;  // kind != kSingle (responses use packed framing)
  std::vector<IndexedCall> calls;  // kSingle: 1 entry; kPacked: M; kPlan: empty
  RemotePlan plan;                 // kPlan only

  /// Trace context from the request's spi:Trace header block, if any
  /// (telemetry/trace.hpp). Extracted by Dispatcher::parse_request.
  telemetry::TraceContext trace;

  /// Deadline from the request's spi:Deadline header block, re-anchored to
  /// this host's clock at parse time (resilience/deadline.hpp).
  resilience::Deadline deadline;

  /// Number of operations this request will execute.
  size_t call_count() const {
    return kind == Kind::kPlan ? plan.steps.size() : calls.size();
  }
};

/// Parses a request body (auto-detects packed / plan / traditional — the
/// "no change to services code" property: old-style clients keep working).
Result<ParsedRequest> parse_request(const soap::Envelope& envelope);

/// Serializes a Remote_Execution body entry (see remote_plan.hpp).
std::string serialize_plan_request(const RemotePlan& plan);

// --- response side ----------------------------------------------------------

/// Serializes a traditional (single) response body entry.
std::string serialize_single_response(const ServiceCall& call,
                                      const CallOutcome& outcome);

/// Serializes outcomes into one Parallel_Response body entry. Outcomes
/// must carry the ids of the requests they answer.
std::string serialize_packed_response(std::span<const IndexedOutcome> outcomes);

/// Appending variants + capacity estimate, mirroring the request side.
void write_single_response(xml::Writer& writer, const ServiceCall& call,
                           const CallOutcome& outcome);
void write_packed_response(xml::Writer& writer,
                           std::span<const IndexedOutcome> outcomes);
xml::Reservation estimate_response_bytes(
    std::span<const IndexedOutcome> outcomes);

struct ParsedResponse {
  bool packed = false;
  std::vector<IndexedOutcome> outcomes;  // exactly 1 when !packed

  /// Trace context echoed in the response's spi:Trace header, if any.
  telemetry::TraceContext trace;
};

/// Parses a response body (packed, traditional, or a bare Fault).
Result<ParsedResponse> parse_response(const soap::Envelope& envelope);

}  // namespace spi::core::wire
