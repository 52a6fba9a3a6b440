// Token-stream helpers for readers that walk an envelope with the pull
// parser instead of building a DOM: skipping a subtree, and checking an
// accessor by soap::read_value's rules without building its Value. The
// proxy's pack view (core/wire_view.hpp) is their user; requests the server
// executes are decoded through the DOM (soap::Envelope + read_value).
#pragma once

#include "soap/value.hpp"
#include "xml/parser.hpp"

namespace spi::soap {

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
