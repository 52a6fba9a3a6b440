// SOAP 1.1 envelope framing: building envelopes around pre-serialized body
// content (streaming, used by the Assembler) and parsing received
// envelopes into a DOM (used by the Dispatcher). Fault handling per SOAP
// 1.1 §4.4.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "xml/parser.hpp"

namespace spi::xml {
class Writer;
}

namespace spi::soap {

/// Canonical namespace URIs (SOAP 1.1).
inline constexpr std::string_view kEnvelopeNs =
    "http://schemas.xmlsoap.org/soap/envelope/";
inline constexpr std::string_view kEncodingNs =
    "http://schemas.xmlsoap.org/soap/encoding/";
inline constexpr std::string_view kXsdNs = "http://www.w3.org/2001/XMLSchema";
inline constexpr std::string_view kXsiNs =
    "http://www.w3.org/2001/XMLSchema-instance";
/// Namespace of the SPI extension elements (Parallel_Method, Call, ...).
inline constexpr std::string_view kSpiNs = "http://spi.example.org/2006/spi";

/// Writes the envelope framing that precedes the body entries into an
/// empty `writer`: the XML declaration, the Envelope start tag with the
/// canonical namespace declarations, the Header block when
/// `header_blocks_xml` is non-empty (one verbatim fragment per header
/// entry), and the Body start tag. The caller then writes the body entries
/// straight into the same buffer; writer.take() closes Body and Envelope
/// and hands the finished document out. build_envelope() and the
/// Assembler both frame through here, so the framing bytes are defined
/// once.
void open_envelope(xml::Writer& writer,
                   std::span<const std::string> header_blocks_xml = {});

/// Writer capacity for a whole envelope: `body_bytes` of body entries plus
/// the header blocks plus the framing open_envelope() and take() add.
size_t envelope_capacity(size_t body_bytes,
                         std::span<const std::string> header_blocks_xml = {});

/// Builds a complete envelope document around already-serialized body
/// entries (`body_inner_xml`, spliced in verbatim) and header fragments.
/// Convenience over open_envelope() for callers that hold the body as a
/// string (faults, tests); it copies the body once. Single pass, no DOM.
std::string build_envelope(std::string_view body_inner_xml,
                           const std::vector<std::string>& header_blocks_xml = {});

/// Message-shape bounds for received envelopes (DESIGN.md §11). The pack
/// interface turns ONE message into M server-side executions, so the
/// shape of a hostile envelope — header-block count, body-entry count,
/// and above all the fan-out M — is a resource amplifier and gets its own
/// budget. Count limits here reject the whole message (kCapacityExceeded,
/// "envelope limit exceeded: <limit> ..."); the fan-out cap is enforced
/// per call in the Dispatcher so healthy pack siblings still execute.
struct EnvelopeLimits {
  /// Calls per Parallel_Method (and steps per Remote_Execution plan).
  /// Calls beyond the cap fault with CapacityExceeded; the first
  /// max_fanout siblings run normally.
  size_t max_fanout = 8192;
  /// Direct children of SOAP-ENV:Body.
  size_t max_body_entries = 64;
  /// Direct children of SOAP-ENV:Header.
  size_t max_header_blocks = 64;
};

/// The kCapacityExceeded error for a violated count limit:
/// "envelope limit exceeded: <limit> (<count> > <bound>)".
Error envelope_limit_error(std::string_view limit, size_t count, size_t bound);

/// A received envelope, parsed to DOM. The Document owns the bytes every
/// element view borrows from; header/body entries point into it, so an
/// Envelope is self-contained (parse adopts the input) and move-only.
/// Entry pointers target children-vector storage and stay valid across
/// moves of the Envelope.
struct Envelope {
  /// The parsed document (kept for ownership; consumers use the entry
  /// pointers below).
  xml::Document document;
  /// Header element children (empty when no Header block was present).
  std::vector<const xml::Element*> header_blocks;
  /// Body element children (operation request/response elements).
  std::vector<const xml::Element*> body_entries;

  /// Parses and validates Envelope/Header?/Body structure. The Document
  /// adopts `text` (see xml::parse_document). `parse_limits` bounds the
  /// XML tokenizer; `limits` bounds the envelope shape (header/body entry
  /// counts — fan-out is the Dispatcher's job).
  static Result<Envelope> parse(std::string text,
                                const xml::ParseLimits& parse_limits = {},
                                const EnvelopeLimits& limits = {});
};

/// SOAP 1.1 Fault.
struct Fault {
  std::string faultcode = "SOAP-ENV:Server";
  std::string faultstring;
  std::string faultactor;
  std::string detail;

  /// Serializes as a <SOAP-ENV:Fault> body entry fragment.
  std::string to_xml() const;

  /// Appends the same fragment into an existing writer (buffer reuse).
  void write_xml(xml::Writer& writer) const;

  /// Recognizes a Fault body entry; nullopt if `entry` is not a Fault.
  static std::optional<Fault> from_element(const xml::Element& entry);

  /// Maps onto the library error model (kFault).
  Error to_error() const;
  static Fault from_error(const Error& error);
};

}  // namespace spi::soap
