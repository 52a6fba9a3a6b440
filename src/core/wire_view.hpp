// Byte-level views of SPI envelopes, for a relay that reads each message
// once and then copies bytes (DESIGN.md §15). One pull-parser pass over a
// request envelope yields a PackView: per call its byte range (content
// still escaped), id, service, operation and the decoded text of its
// shard key. One pass over a reply yields a ReplyView: per CallResponse the
// bytes of its <return> element, or the decoded fault. Sub-packs and merges
// are then written as fresh start and end tags around those bytes, so no
// payload is decoded into soap::Values and re-serialized.
//
// Both views accept exactly what the DOM path (soap::Envelope::parse plus
// wire::parse_request / parse_response) accepts, so a relay answers the
// same messages with 400 as a server would; the fuzz_envelope harness and
// test_pack_view hold the two paths to that.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "core/wire.hpp"
#include "soap/envelope.hpp"
#include "xml/writer.hpp"

namespace spi::core::wire {

/// One attribute as a received start tag carries it: the value still
/// escaped, and the quote it was written in.
struct RawAttribute {
  std::string_view name;
  std::string_view value;
  char quote = '"';
};

/// Pull-parser walk over an envelope's frame, under the pack and reply
/// views. It checks what soap::Envelope::parse checks (root Envelope,
/// header-block and body-entry limits, one Body, no Header after it,
/// well-formed to the end of the document) and reads the spi:Trace and
/// spi:Deadline header blocks as it passes them, by the same rules as
/// TraceContext/Deadline::from_header_blocks.
class EnvelopeReader {
 public:
  /// `scratch` receives entity expansions (null: the parser's own arena);
  /// views of expanded text live as long as it does.
  EnvelopeReader(std::string_view text, MonotonicArena* scratch,
                 const xml::ParseLimits& parse_limits,
                 const soap::EnvelopeLimits& envelope_limits);

  /// Walks to the body's first entry and returns its start token (its
  /// attribute span is valid until the next parser call). `what` names
  /// the message in errors ("request" / "response").
  Result<xml::Token> open_entry(std::string_view what);

  /// After the caller consumed the entry through its end tag: checks the
  /// rest of the document (no second entry, no second Body, no Header
  /// after it) through its end.
  Status close(std::string_view what);

  xml::PullParser& parser() { return parser_; }

  /// Offset of the body entry's start tag in the text.
  size_t entry_begin() const { return entry_begin_; }

  const telemetry::TraceContext& trace() const { return trace_; }
  const resilience::Deadline& deadline() const { return deadline_; }

  /// Namespace declarations on the Envelope and Body start tags, outer
  /// first, as written.
  const std::vector<RawAttribute>& namespaces() const { return namespaces_; }

 private:
  /// Reads one Header element's blocks (its start token just consumed).
  Status read_header();
  void note_namespaces(const xml::Token& start);

  std::string_view text_;
  xml::PullParser parser_;
  soap::EnvelopeLimits envelope_limits_;
  telemetry::TraceContext trace_;
  resilience::Deadline deadline_;
  bool have_trace_ = false;
  bool have_deadline_ = false;
  size_t entry_begin_ = 0;
  std::vector<RawAttribute> namespaces_;
};

// --- request side -----------------------------------------------------------

/// One call as it lies in a received request envelope.
struct CallView {
  std::uint32_t id = 0;
  std::string_view service;    ///< decoded
  std::string_view operation;  ///< decoded
  /// The ring key: the text of the first string-valued parameter named
  /// after the shard parameter, else "service/operation" (what
  /// PackingProxy::route_key returns for the decoded call).
  std::string_view route_key;
  /// The service and operation attributes as written (a traditional entry
  /// has no operation attribute: its local name stands in).
  RawAttribute service_attr;
  RawAttribute operation_attr;
  /// Every other attribute of the start tag, as written.
  std::span<const RawAttribute> attributes;
  /// In-scope namespace declarations of the call's ancestors that the
  /// envelope framing does not make itself, so re-framed content keeps
  /// its prefixes bound. Empty for envelopes this stack writes.
  std::span<const RawAttribute> namespaces;
  /// The bytes between the start and the end tag, verbatim (escaped).
  std::string_view content;
};

/// What a relay needs of a request envelope.
struct PackView {
  ParsedRequest::Kind kind = ParsedRequest::Kind::kSingle;
  bool packed = false;
  /// kSingle: one call; kPacked: M calls; kPlan: empty (the entry was
  /// Remote_Execution and was not read further).
  std::vector<CallView> calls;
  telemetry::TraceContext trace;
  resilience::Deadline deadline;
  /// Storage the views point into besides the envelope text: attributes
  /// and namespace lists, decoded text (entity expansions, joined runs,
  /// "service/operation" keys).
  std::vector<RawAttribute> attribute_pool;
  MonotonicArena arena;
};

/// Views a request envelope in one pass. Rejects what Envelope::parse +
/// parse_request reject, except that a Remote_Execution body is returned
/// as kPlan unread (plans take the DOM path). `text` must outlive the view.
Result<PackView> view_request(std::string_view text,
                              const xml::ParseLimits& parse_limits,
                              const soap::EnvelopeLimits& envelope_limits,
                              std::string_view shard_param);

/// Writes `calls` as one Parallel_Method, ids 0..n-1 in order (packed), or
/// the single call as a traditional entry: fresh start and end tags around
/// each call's content. For an envelope this stack's Assembler wrote, the
/// output equals write_packed_request / write_single_request of the
/// decoded calls byte for byte.
void write_spliced_request(xml::Writer& writer,
                           std::span<const CallView> calls, bool packed);

/// Writer reserve() hint for write_spliced_request.
size_t estimate_spliced_request_bytes(std::span<const CallView> calls);

// --- response side ----------------------------------------------------------

/// One call's answer in a reply: the bytes of its <return> element, or the
/// decoded fault (soap::Fault::to_error of it). A fault read from a reply
/// also keeps the bytes of its Fault element, so a relay passes it on as
/// the backend wrote it; a fault the relay makes itself (no backend, open
/// breaker, transport failure) has none and is written from its Error.
class RelayedOutcome : public Result<std::string_view> {
 public:
  using Result::Result;
  RelayedOutcome(Error fault, std::string_view fault_xml)
      : Result(std::move(fault)), fault_xml_(fault_xml) {}

  /// The Fault element as received; empty for a fault made locally.
  std::string_view fault_xml() const { return fault_xml_; }

 private:
  std::string_view fault_xml_;
};

struct IndexedRelay {
  std::uint32_t id = 0;
  RelayedOutcome outcome;
};

struct ReplyView {
  bool packed = false;
  std::vector<IndexedRelay> outcomes;  ///< exactly 1 when !packed
};

/// Views a response envelope in one pass; rejects what Envelope::parse +
/// parse_response reject. Only faults are decoded. `text` must outlive the
/// view.
Result<ReplyView> view_response(std::string_view text,
                                const xml::ParseLimits& parse_limits = {},
                                const soap::EnvelopeLimits& limits = {});

/// Writes the merge: outcomes[i] answers calls[i] under calls[i].id — a
/// relayed <return> or Fault element verbatim, a locally made fault as
/// soap::Fault::from_error writes it — in one Parallel_Response (packed),
/// or the one call's outcome in traditional framing. For replies this stack wrote, the
/// output equals write_packed_response / write_single_response of the
/// decoded outcomes byte for byte.
void write_spliced_response(xml::Writer& writer,
                            std::span<const RelayedOutcome> outcomes,
                            std::span<const CallView> calls, bool packed);

/// Writer reserve() hint for write_spliced_response.
size_t estimate_spliced_response_bytes(
    std::span<const RelayedOutcome> outcomes);

}  // namespace spi::core::wire
