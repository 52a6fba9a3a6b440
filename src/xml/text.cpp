#include "xml/text.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <span>

namespace spi::xml {

namespace {

bool is_name_start(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || c >= 0x80;
}

bool is_name_char(unsigned char c) {
  return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

struct Escape {
  char byte;
  std::string_view entity;
};

constexpr Escape kTextEscapes[] = {
    {'&', "&amp;"}, {'<', "&lt;"}, {'>', "&gt;"}, {'\r', "&#13;"}};

constexpr Escape kAttributeEscapes[] = {
    {'&', "&amp;"}, {'<', "&lt;"},  {'>', "&gt;"},  {'"', "&quot;"},
    {'\n', "&#10;"}, {'\t', "&#9;"}, {'\r', "&#13;"}};

constexpr size_t kMaxEscapes = std::size(kAttributeEscapes);

/// The entity of every byte in `escapes`, indexed by byte; empty otherwise.
using EntityTable = std::array<std::string_view, 256>;

constexpr EntityTable make_entity_table(std::span<const Escape> escapes) {
  EntityTable table{};
  for (const Escape& e : escapes) {
    table[static_cast<unsigned char>(e.byte)] = e.entity;
  }
  return table;
}

constexpr EntityTable kTextEntities = make_entity_table(kTextEscapes);
constexpr EntityTable kAttributeEntities =
    make_entity_table(kAttributeEscapes);

/// Clean bytes the byte loop lets go by before it hands the scan back to
/// the memchr cursors.
constexpr std::ptrdiff_t kDenseRun = 32;

const char* find_byte(const char* from, const char* end, char byte) {
  const void* hit = std::memchr(from, byte, static_cast<size_t>(end - from));
  return hit ? static_cast<const char*>(hit) : end;
}

/// Appends `text` with each byte of `escapes` replaced by its entity.
/// A byte loop escapes through `entities` until kDenseRun clean bytes go
/// by; the clean stretch that follows is crossed at memchr speed, to the
/// nearest hit of one cursor per special byte. A cursor is refreshed only
/// once the scan has passed its hit, so each sweeps the input once and
/// the scan stays linear. Clean payloads cost a few memchr sweeps, and
/// special-dense text (markup carried as a string) a table lookup per
/// byte rather than a memchr restart per hit.
void append_escaped(std::string& out, std::string_view text,
                    std::span<const Escape> escapes,
                    const EntityTable& entities) {
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const char* cursor = begin;  // first byte not yet appended
  const char* p = begin;       // first byte not yet scanned
  // Each cursor's next hit; a hit that `p` has passed is searched again.
  // `begin` is passed before the first search: the byte loop advances `p`.
  const char* next[kMaxEscapes] = {};
  std::fill_n(next, escapes.size(), begin);
  // Where the byte loop stops if no special byte follows `from`.
  auto window_end = [end](const char* from) {
    return end - from > kDenseRun ? from + kDenseRun + 1 : end;
  };
  while (true) {
    for (const char* stop = window_end(p); p != stop; ++p) {
      std::string_view entity = entities[static_cast<unsigned char>(*p)];
      if (entity.empty()) continue;
      out.append(cursor, static_cast<size_t>(p - cursor));
      out.append(entity);
      cursor = p + 1;
      stop = window_end(p);
    }
    if (p == end) break;
    const char* hit = end;
    for (size_t k = 0; k < escapes.size(); ++k) {
      if (next[k] < p) next[k] = find_byte(p, end, escapes[k].byte);
      hit = std::min(hit, next[k]);
    }
    p = hit;
    if (p == end) break;
  }
  out.append(cursor, static_cast<size_t>(end - cursor));
}

}  // namespace

void append_escaped_text(std::string& out, std::string_view text) {
  append_escaped(out, text, kTextEscapes, kTextEntities);
}

size_t find_text_escape(std::string_view text) {
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const char* hit = end;
  for (const Escape& e : kTextEscapes) hit = find_byte(begin, hit, e.byte);
  return hit == end ? std::string_view::npos
                    : static_cast<size_t>(hit - begin);
}

void append_escaped_attribute(std::string& out, std::string_view value) {
  append_escaped(out, value, kAttributeEscapes, kAttributeEntities);
}

std::string escape_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped_text(out, text);
  return out;
}

std::string escape_attribute(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  append_escaped_attribute(out, value);
  return out;
}

size_t encode_utf8(char* out, std::uint32_t cp) {
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) return 0;
  if (cp < 0x80) {
    out[0] = static_cast<char>(cp);
    return 1;
  }
  if (cp < 0x800) {
    out[0] = static_cast<char>(0xC0 | (cp >> 6));
    out[1] = static_cast<char>(0x80 | (cp & 0x3F));
    return 2;
  }
  if (cp < 0x10000) {
    out[0] = static_cast<char>(0xE0 | (cp >> 12));
    out[1] = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out[2] = static_cast<char>(0x80 | (cp & 0x3F));
    return 3;
  }
  out[0] = static_cast<char>(0xF0 | (cp >> 18));
  out[1] = static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
  out[2] = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
  out[3] = static_cast<char>(0x80 | (cp & 0x3F));
  return 4;
}

bool append_utf8(std::string& out, std::uint32_t cp) {
  char buf[4];
  size_t n = encode_utf8(buf, cp);
  if (n == 0) return false;
  out.append(buf, n);
  return true;
}

Result<size_t> unescape_to(std::string_view text, char* out) {
  char* cursor = out;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      // Copy the run up to the next entity in one shot.
      size_t amp = text.find('&', i);
      if (amp == std::string_view::npos) amp = text.size();
      std::memcpy(cursor, text.data() + i, amp - i);
      cursor += amp - i;
      i = amp;
      continue;
    }
    size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return Error(ErrorCode::kParseError, "unterminated entity reference");
    }
    std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      *cursor++ = '&';
    } else if (entity == "lt") {
      *cursor++ = '<';
    } else if (entity == "gt") {
      *cursor++ = '>';
    } else if (entity == "quot") {
      *cursor++ = '"';
    } else if (entity == "apos") {
      *cursor++ = '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      std::uint32_t cp = 0;
      bool ok = false;
      if (entity.size() > 2 && (entity[1] == 'x' || entity[1] == 'X')) {
        for (size_t k = 2; k < entity.size(); ++k) {
          char h = entity[k];
          std::uint32_t digit;
          if (h >= '0' && h <= '9') digit = h - '0';
          else if (h >= 'a' && h <= 'f') digit = h - 'a' + 10;
          else if (h >= 'A' && h <= 'F') digit = h - 'A' + 10;
          else { ok = false; break; }
          cp = cp * 16 + digit;
          if (cp > 0x10FFFF) break;
          ok = true;
        }
      } else if (entity.size() > 1) {
        for (size_t k = 1; k < entity.size(); ++k) {
          char d = entity[k];
          if (d < '0' || d > '9') { ok = false; break; }
          cp = cp * 10 + static_cast<std::uint32_t>(d - '0');
          if (cp > 0x10FFFF) break;
          ok = true;
        }
      }
      size_t encoded = ok ? encode_utf8(cursor, cp) : 0;
      if (encoded == 0) {
        return Error(ErrorCode::kParseError,
                     "invalid character reference '&" + std::string(entity) +
                         ";'");
      }
      cursor += encoded;
    } else {
      return Error(ErrorCode::kParseError,
                   "unknown entity '&" + std::string(entity) + ";'");
    }
    i = semi + 1;
  }
  return static_cast<size_t>(cursor - out);
}

Result<std::string> unescape(std::string_view text) {
  std::string out;
  out.resize(text.size());
  auto written = unescape_to(text, out.data());
  if (!written.ok()) return written.error();
  out.resize(written.value());
  return out;
}

bool is_valid_name(std::string_view name) {
  if (name.empty()) return false;
  if (!is_name_start(static_cast<unsigned char>(name[0]))) return false;
  for (size_t i = 1; i < name.size(); ++i) {
    if (!is_name_char(static_cast<unsigned char>(name[i]))) return false;
  }
  return true;
}

}  // namespace spi::xml
