// XML character-data handling: entity escaping/unescaping, numeric
// character references, and name validation. Shared by the writer (escape)
// and the parser (unescape).
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"

namespace spi::xml {

/// Escapes element content: & < > as &amp; &lt; &gt; ('>' for "]]>"
/// safety), and CR as &#13; because a conforming XML 1.0 parser
/// normalizes a literal CR to LF (§2.11). Crosses clean runs at memchr
/// speed; output is appended to `out`.
void append_escaped_text(std::string& out, std::string_view text);

/// Offset of the first byte append_escaped_text() would replace (&, <, >
/// or CR), npos when it would copy `text` unchanged. One memchr sweep per
/// byte, each ending at the previous hit.
size_t find_text_escape(std::string_view text);

/// Escapes a double-quoted attribute value: & < > " as entities, and
/// LF, TAB and CR as &#10; &#9; &#13; so attribute-value normalization
/// (§3.3.3) leaves them intact.
void append_escaped_attribute(std::string& out, std::string_view value);

std::string escape_text(std::string_view text);
std::string escape_attribute(std::string_view value);

/// Expands &amp; &lt; &gt; &quot; &apos; and numeric refs (&#ddd; &#xhhh;).
/// Fails on malformed or unknown entities.
Result<std::string> unescape(std::string_view text);

/// unescape() into caller-provided storage of at least `text.size()` bytes
/// (expansion never grows: every entity form is >= 4 source chars and
/// yields <= 4 UTF-8 bytes). Returns the number of bytes written.
Result<size_t> unescape_to(std::string_view text, char* out);

/// True if `name` is a valid XML element/attribute name (ASCII subset plus
/// pass-through of multi-byte UTF-8; sufficient for SOAP envelopes).
bool is_valid_name(std::string_view name);

/// Appends a Unicode code point as UTF-8. Returns false for invalid
/// code points (surrogates, > U+10FFFF).
bool append_utf8(std::string& out, std::uint32_t code_point);

/// Encodes a code point as UTF-8 into `out` (needs up to 4 bytes free).
/// Returns bytes written, or 0 for invalid code points.
size_t encode_utf8(char* out, std::uint32_t code_point);

}  // namespace spi::xml
