// Streaming SOAP deserialization: values are decoded straight from the
// pull-parser token stream, never materializing a DOM. This is the
// direction of the §2.2 parsing optimizations (gSOAP's generated parsers,
// bSOAP) — one pass, no intermediate tree, allocation proportional to the
// decoded values only. wire::parse_request_streaming builds on it; the
// DOM path remains the reference implementation (property-tested
// equivalent).
#pragma once

#include "soap/value.hpp"
#include "xml/parser.hpp"

namespace spi::soap {

/// Reads one accessor element's value from a pull-parser stream.
class ValueStreamReader {
 public:
  explicit ValueStreamReader(xml::PullParser& parser) : parser_(parser) {}

  /// `start` is the accessor's already-consumed kStartElement token; on
  /// success the stream is positioned just past the matching end element.
  Result<Value> read_value(const xml::Token& start);

 private:
  /// Decodes using the same rules as soap::read_value (xsi:type, then
  /// shape inference), consuming tokens through the matching end element.
  Result<Value> decode(const xml::Token& start);

  xml::PullParser& parser_;
};

/// Advances the parser past the current element's entire subtree
/// (`start` already consumed). Used to skip envelope headers cheaply.
Status skip_subtree(xml::PullParser& parser, const xml::Token& start);

/// Checks one accessor element by the rules soap::read_value applies to
/// the same element of a DOM, consuming it through its end tag, and builds
/// no Value: a relay needs to know that a value is well-typed, not what it
/// is. Accepts exactly what read_value accepts (children of a nil, scalar
/// or string accessor are not checked, as read_value never reads them).
/// Returns true when the accessor decodes to a string; its text is then
/// stored in `*string_text` when that is non-null — a view into the input,
/// or into `arena` when CDATA sections, comments or child elements split
/// it into runs.
Result<bool> check_value(xml::PullParser& parser, const xml::Token& start,
                         std::string_view* string_text, MonotonicArena& arena);

}  // namespace spi::soap
