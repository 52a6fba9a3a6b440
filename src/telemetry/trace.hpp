// W3C-traceparent-style trace context, carried as a SOAP header block:
//
//   <spi:Trace>
//     <spi:TraceId>4bf92f3577b34da6a3ce929d0e0e4736</spi:TraceId>
//     <spi:ParentId>00f067aa0ba902b7</spi:ParentId>
//   </spi:Trace>
//
// SpiClient injects one per outbound message (the Assembler appends the
// header of the thread's current TraceScope), the server Dispatcher
// extracts it, fan-out workers see it in their CallContext, and the
// response envelope echoes it — so one packed message's M concurrent
// executions share one trace-id across both processes and in logs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "xml/parser.hpp"

namespace spi::telemetry {

struct TraceContext {
  std::string trace_id;   // 32 lowercase hex chars (16 bytes)
  std::string parent_id;  // 16 lowercase hex chars (8 bytes)

  bool valid() const { return !trace_id.empty(); }

  /// Fresh random trace (thread-local splitmix64, seeded per thread).
  static TraceContext generate();

  /// Same trace-id, fresh parent-id: the id a server would use for its
  /// own downstream calls.
  TraceContext child() const;

  /// Serializes as a header-block fragment (shape above).
  std::string to_header_block() const;

  /// Recognizes a spi:Trace header element; nullopt otherwise.
  static std::optional<TraceContext> from_header_block(
      const xml::Element& block);

  /// The context a spi:Trace block with these (trimmed) TraceId and
  /// ParentId texts carries: nullopt unless `trace_id` is hex; a parent id
  /// that is not hex (or empty, for a missing ParentId) is dropped. Shared
  /// by the DOM reader above and the pull-parser header reader.
  static std::optional<TraceContext> from_ids(std::string_view trace_id,
                                              std::string_view parent_id);

  /// First spi:Trace among an envelope's header blocks, if any.
  static std::optional<TraceContext> from_header_blocks(
      const std::vector<const xml::Element*>& blocks);

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// The calling thread's active trace, or nullptr. The Assembler consults
/// this when finishing an envelope; log sites may include it.
const TraceContext* current_trace();

/// RAII: installs `context` as the thread's current trace, restoring the
/// previous one on destruction (scopes nest).
class TraceScope {
 public:
  explicit TraceScope(const TraceContext& context);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const TraceContext* previous_;
};

}  // namespace spi::telemetry
