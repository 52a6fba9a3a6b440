#include "soap/streaming.hpp"

#include <cstring>

#include "common/string_util.hpp"
#include "soap/serializer.hpp"

namespace spi::soap {

namespace {

std::optional<std::string_view> attribute_of(const xml::Token& token,
                                             std::string_view name) {
  for (const xml::Attribute& attribute : token.attributes) {
    if (attribute.name == name) return std::string_view(attribute.value);
  }
  return std::nullopt;
}

}  // namespace

Status skip_subtree(xml::PullParser& parser, const xml::Token& start) {
  // The synthesized end of a self-closing element still arrives as a
  // token, so depth accounting is uniform.
  size_t depth = 1;
  (void)start;
  while (depth > 0) {
    auto token = parser.next();
    if (!token.ok()) return token.error();
    switch (token.value().type) {
      // Every start — including self-closing, whose end is synthesized —
      // is matched by exactly one end token.
      case xml::TokenType::kStartElement:
        ++depth;
        break;
      case xml::TokenType::kEndElement:
        --depth;
        break;
      case xml::TokenType::kEndOfDocument:
        return Error(ErrorCode::kParseError, "unexpected end of document");
      default:
        break;
    }
  }
  return Status();
}

Result<bool> check_value(xml::PullParser& parser, const xml::Token& start,
                         std::string_view* string_text, MonotonicArena& arena) {
  // The attribute span dies at the next next(): classify first.
  const bool nil = attribute_of(start, "xsi:nil") == "true";
  const DeclaredType type =
      declared_type(attribute_of(start, "xsi:type").value_or(""));
  const bool scalar = type == DeclaredType::kBoolean ||
                      type == DeclaredType::kInt ||
                      type == DeclaredType::kDouble;
  const bool may_be_string =
      type == DeclaredType::kString || type == DeclaredType::kInferred;
  const bool check_children =
      !nil && (type == DeclaredType::kArray ||
               type == DeclaredType::kStruct ||
               type == DeclaredType::kInferred);
  const bool want_text =
      !nil && (scalar || (may_be_string && string_text != nullptr));

  // Direct text runs, joined once at the end (as the DOM joins them).
  std::string_view first_run;
  std::vector<std::string_view> more_runs;
  bool has_children = false;
  while (true) {
    auto token = parser.next();
    if (!token.ok()) return token.error();
    const xml::Token& t = token.value();
    if (t.type == xml::TokenType::kEndElement) break;
    switch (t.type) {
      case xml::TokenType::kText:
      case xml::TokenType::kCData:
        if (!want_text || t.text.empty()) break;
        if (first_run.empty()) {
          first_run = t.text;
        } else {
          more_runs.push_back(t.text);
        }
        break;
      case xml::TokenType::kStartElement: {
        has_children = true;
        if (check_children) {
          auto child = check_value(parser, t, nullptr, arena);
          if (!child.ok()) return child.error();
        } else if (Status skipped = skip_subtree(parser, t); !skipped.ok()) {
          return skipped.error();
        }
        break;
      }
      case xml::TokenType::kEndOfDocument:
        return Error(ErrorCode::kParseError, "unexpected end of document");
      default:
        break;  // comments / PIs
    }
  }
  if (nil) return false;

  std::string_view text = first_run;
  if (!more_runs.empty()) {
    size_t total = first_run.size();
    for (std::string_view run : more_runs) total += run.size();
    char* joined = arena.allocate(total);
    std::memcpy(joined, first_run.data(), first_run.size());
    size_t at = first_run.size();
    for (std::string_view run : more_runs) {
      std::memcpy(joined + at, run.data(), run.size());
      at += run.size();
    }
    text = std::string_view(joined, total);
  }

  switch (type) {
    case DeclaredType::kBoolean: {
      auto parsed = parse_xsd_boolean(trim(text));
      if (!parsed.ok()) return parsed.error();
      return false;
    }
    case DeclaredType::kInt: {
      auto parsed = parse_xsd_int(trim(text));
      if (!parsed.ok()) return parsed.error();
      return false;
    }
    case DeclaredType::kDouble: {
      auto parsed = parse_xsd_double(trim(text));
      if (!parsed.ok()) return parsed.error();
      return false;
    }
    case DeclaredType::kArray:
    case DeclaredType::kStruct:
      return false;
    case DeclaredType::kString:
    case DeclaredType::kInferred:
      break;
  }
  if (has_children && type == DeclaredType::kInferred) return false;
  if (string_text != nullptr) *string_text = text;
  return true;
}

}  // namespace spi::soap
