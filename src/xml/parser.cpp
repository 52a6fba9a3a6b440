#include "xml/parser.hpp"

#include <cstring>

#include "common/buffer_pool.hpp"
#include "common/string_util.hpp"
#include "xml/text.hpp"
#include "xml/writer.hpp"

namespace spi::xml {

namespace {
bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }
}  // namespace

std::string_view token_type_name(TokenType type) {
  switch (type) {
    case TokenType::kStartElement: return "StartElement";
    case TokenType::kEndElement: return "EndElement";
    case TokenType::kText: return "Text";
    case TokenType::kCData: return "CData";
    case TokenType::kComment: return "Comment";
    case TokenType::kProcessingInstruction: return "ProcessingInstruction";
    case TokenType::kDeclaration: return "Declaration";
    case TokenType::kEndOfDocument: return "EndOfDocument";
  }
  return "?";
}

OwnedToken::OwnedToken(const Token& token)
    : type(token.type),
      name(token.name),
      text(token.text),
      self_closing(token.self_closing) {
  attributes.reserve(token.attributes.size());
  for (const Attribute& attr : token.attributes) {
    attributes.push_back(
        OwnedAttribute{std::string(attr.name), std::string(attr.value)});
  }
}

PullParser::PullParser(std::string_view input, MonotonicArena* scratch,
                       const ParseLimits& limits)
    : input_(input),
      limits_(limits),
      scratch_(scratch ? scratch : &own_scratch_) {}

Error PullParser::err(std::string message) const {
  message += " at offset ";
  append_u64(message, pos_);
  return Error(ErrorCode::kParseError, std::move(message));
}

Error PullParser::limit_err(std::string_view limit,
                            std::string detail) const {
  std::string message = "parse limit exceeded: ";
  message += limit;
  message += " (";
  message += detail;
  message += ')';
  return err(std::move(message));
}

void PullParser::skip_whitespace() {
  while (pos_ < input_.size() && is_ws(input_[pos_])) ++pos_;
}

Result<std::string_view> PullParser::read_name() {
  size_t start = pos_;
  while (pos_ < input_.size()) {
    char c = input_[pos_];
    if (is_ws(c) || c == '>' || c == '/' || c == '=' || c == '?') break;
    ++pos_;
  }
  std::string_view name = input_.substr(start, pos_ - start);
  if (name.size() > limits_.max_name_bytes) {
    return limit_err("name-bytes",
                     std::to_string(name.size()) + " > " +
                         std::to_string(limits_.max_name_bytes));
  }
  if (!is_valid_name(name)) {
    return err("invalid name '" + std::string(name) + "'");
  }
  return name;
}

Result<std::string_view> PullParser::expand(std::string_view raw,
                                            const char* context) {
  // Lazy path: a run with no '&' needs no expansion and no copy; this is
  // the overwhelmingly common case for SOAP payloads.
  if (raw.find('&') == std::string_view::npos) return raw;
  // Cumulative budget across the whole document: each expansion charges
  // its OUTPUT size, so a flood of small entity runs is caught the same
  // as a few huge ones (billion-laughs shape without DTDs).
  if (expansion_bytes_ + raw.size() > limits_.max_entity_expansion_bytes) {
    return limit_err("entity-expansion",
                     "cumulative expansion over " +
                         std::to_string(limits_.max_entity_expansion_bytes) +
                         " bytes");
  }
  // Expansion never grows (see unescape_to), so one reservation suffices.
  char* out = scratch_->begin_write(raw.size());
  auto written = unescape_to(raw, out);
  if (!written.ok()) return written.wrap_error(context);
  expansion_bytes_ += written.value();
  return scratch_->commit_write(written.value());
}

Result<Token> PullParser::next() {
  // Every token — including synthesized self-closing ends and the final
  // kEndOfDocument — charges the token budget; a document that tokenizes
  // forever is as hostile as one that nests forever.
  if (++tokens_ > limits_.max_tokens) {
    return limit_err("tokens",
                     "document exceeds " +
                         std::to_string(limits_.max_tokens) + " tokens");
  }
  if (pending_end_) {
    pending_end_ = false;
    Token token;
    token.type = TokenType::kEndElement;
    token.name = pending_end_name_;
    return token;
  }

  if (pos_ >= input_.size()) {
    if (!open_.empty()) {
      return err("unexpected end of input; unclosed <" +
                 std::string(open_.back()) + ">");
    }
    if (!seen_root_) return err("document has no root element");
    Token token;
    token.type = TokenType::kEndOfDocument;
    return token;
  }

  if (input_[pos_] == '<') return parse_markup();
  return parse_text();
}

Result<Token> PullParser::parse_text() {
  size_t start = pos_;
  size_t lt = input_.find('<', pos_);
  if (lt == std::string_view::npos) lt = input_.size();
  std::string_view raw = input_.substr(start, lt - start);
  pos_ = lt;

  if (open_.empty()) {
    // Only whitespace is allowed outside the root element.
    for (char c : raw) {
      if (!is_ws(c)) return err("character data outside root element");
    }
    return next();
  }

  auto text = expand(raw, "character data");
  if (!text.ok()) return text.error();
  Token token;
  token.type = TokenType::kText;
  token.text = text.value();
  return token;
}

Result<Token> PullParser::parse_markup() {
  // pos_ points at '<'.
  if (pos_ + 1 >= input_.size()) return err("truncated markup");
  char c = input_[pos_ + 1];
  if (c == '/') return parse_end_tag();
  if (c == '!') return parse_bang();
  if (c == '?') return parse_pi();
  return parse_start_or_empty();
}

Result<Token> PullParser::parse_start_or_empty() {
  ++pos_;  // consume '<'
  if (open_.empty() && seen_root_) {
    return err("multiple root elements");
  }
  auto name = read_name();
  if (!name.ok()) return name.error();

  Token token;
  token.type = TokenType::kStartElement;
  token.name = name.value();

  // Attributes accumulate in the pool reused across tokens; the returned
  // span aliases it, which is why it is only valid until the next next().
  attribute_pool_.clear();
  while (true) {
    skip_whitespace();
    if (pos_ >= input_.size()) return err("truncated start tag");
    char c = input_[pos_];
    if (c == '>') {
      ++pos_;
      break;
    }
    if (c == '/') {
      if (pos_ + 1 >= input_.size() || input_[pos_ + 1] != '>') {
        return err("expected '/>'");
      }
      pos_ += 2;
      token.self_closing = true;
      break;
    }
    auto attr_name = read_name();
    if (!attr_name.ok()) return attr_name.error();
    skip_whitespace();
    if (pos_ >= input_.size() || input_[pos_] != '=') {
      return err("attribute '" + std::string(attr_name.value()) +
                 "' missing '='");
    }
    ++pos_;
    skip_whitespace();
    if (pos_ >= input_.size() ||
        (input_[pos_] != '"' && input_[pos_] != '\'')) {
      return err("attribute value must be quoted");
    }
    char quote = input_[pos_++];
    size_t value_start = pos_;
    size_t value_end = input_.find(quote, pos_);
    if (value_end == std::string_view::npos) {
      return err("unterminated attribute value");
    }
    std::string_view raw_value =
        input_.substr(value_start, value_end - value_start);
    if (raw_value.size() > limits_.max_attribute_value_bytes) {
      return limit_err("attribute-value-bytes",
                       std::to_string(raw_value.size()) + " > " +
                           std::to_string(limits_.max_attribute_value_bytes));
    }
    if (raw_value.find('<') != std::string_view::npos) {
      return err("'<' in attribute value");
    }
    pos_ = value_end + 1;
    auto value = expand(raw_value, "attribute value");
    if (!value.ok()) return value.error();
    if (attribute_pool_.size() >= limits_.max_attributes) {
      return limit_err("attributes",
                       "element carries more than " +
                           std::to_string(limits_.max_attributes) +
                           " attributes");
    }
    for (const Attribute& existing : attribute_pool_) {
      if (existing.name == attr_name.value()) {
        return err("duplicate attribute '" + std::string(attr_name.value()) +
                   "'");
      }
    }
    attribute_pool_.push_back(Attribute{attr_name.value(), value.value()});
  }
  token.attributes = attribute_pool_;

  seen_root_ = true;
  if (token.self_closing) {
    pending_end_ = true;
    pending_end_name_ = token.name;
  } else {
    if (open_.size() >= limits_.max_depth) {
      return limit_err("depth",
                       "nesting deeper than " +
                           std::to_string(limits_.max_depth));
    }
    open_.push_back(token.name);
  }
  return token;
}

Result<Token> PullParser::parse_end_tag() {
  pos_ += 2;  // consume "</"
  auto name = read_name();
  if (!name.ok()) return name.error();
  skip_whitespace();
  if (pos_ >= input_.size() || input_[pos_] != '>') {
    return err("malformed end tag");
  }
  ++pos_;
  if (open_.empty()) {
    return err("end tag </" + std::string(name.value()) +
               "> with no open element");
  }
  if (open_.back() != name.value()) {
    return err("mismatched end tag: expected </" + std::string(open_.back()) +
               ">, got </" + std::string(name.value()) + ">");
  }
  open_.pop_back();
  Token token;
  token.type = TokenType::kEndElement;
  token.name = name.value();
  return token;
}

Result<Token> PullParser::parse_bang() {
  // Comment or CDATA.
  if (input_.substr(pos_, 4) == "<!--") {
    size_t end = input_.find("-->", pos_ + 4);
    if (end == std::string_view::npos) return err("unterminated comment");
    std::string_view body = input_.substr(pos_ + 4, end - pos_ - 4);
    if (body.find("--") != std::string_view::npos) {
      return err("'--' inside comment");
    }
    pos_ = end + 3;
    Token token;
    token.type = TokenType::kComment;
    token.text = body;
    return token;
  }
  if (input_.substr(pos_, 9) == "<![CDATA[") {
    if (open_.empty()) return err("CDATA outside root element");
    size_t end = input_.find("]]>", pos_ + 9);
    if (end == std::string_view::npos) return err("unterminated CDATA");
    Token token;
    token.type = TokenType::kCData;
    token.text = input_.substr(pos_ + 9, end - pos_ - 9);
    pos_ = end + 3;
    return token;
  }
  // DOCTYPE and friends: SOAP 1.1 §3 forbids DTDs in messages.
  return err("unsupported '<!' construct (DTDs are not allowed in SOAP)");
}

Result<Token> PullParser::parse_pi() {
  size_t end = input_.find("?>", pos_ + 2);
  if (end == std::string_view::npos) {
    return err("unterminated processing instruction");
  }
  std::string_view body = input_.substr(pos_ + 2, end - pos_ - 2);
  bool is_decl = starts_with(body, "xml") &&
                 (body.size() == 3 || is_ws(body[3]));
  if (is_decl && (pos_ != 0 || seen_root_)) {
    return err("XML declaration must be at the start of the document");
  }
  pos_ = end + 2;
  Token token;
  token.type = is_decl ? TokenType::kDeclaration
                       : TokenType::kProcessingInstruction;
  size_t space = body.find_first_of(" \t\r\n");
  token.name = body.substr(0, space == std::string_view::npos
                                  ? body.size()
                                  : space);
  if (space != std::string_view::npos) {
    token.text = trim(body.substr(space));
  }
  return token;
}

// ---------------------------------------------------------------------------
// DOM

std::string_view Element::local_name() const {
  size_t colon = name.rfind(':');
  return colon == std::string_view::npos ? name : name.substr(colon + 1);
}

const Element* Element::first_child(std::string_view local) const {
  for (const Element& child : children) {
    if (child.local_name() == local) return &child;
  }
  return nullptr;
}

Element* Element::first_child(std::string_view local) {
  for (Element& child : children) {
    if (child.local_name() == local) return &child;
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(
    std::string_view local) const {
  std::vector<const Element*> out;
  for (const Element& child : children) {
    if (child.local_name() == local) out.push_back(&child);
  }
  return out;
}

std::optional<std::string_view> Element::attribute(
    std::string_view name) const {
  for (const Attribute& attr : attributes) {
    if (attr.name == name) return attr.value;
  }
  return std::nullopt;
}

std::string_view Element::text_trimmed() const { return trim(text); }

namespace {
void write_element(Writer& writer, const Element& element) {
  writer.start_element(element.name);
  for (const Attribute& attr : element.attributes) {
    writer.attribute(attr.name, attr.value);
  }
  if (!element.text.empty()) writer.text(element.text);
  for (const Element& child : element.children) {
    write_element(writer, child);
  }
  writer.end_element();
}

/// Joins an element's text runs into one arena buffer. Called once per
/// element, at its end tag, so every input byte is copied at most once:
/// merged bytes never exceed the input, however many comments, PIs or
/// child elements split the runs.
std::string_view join_runs(std::span<const std::string_view> runs,
                           MonotonicArena& arena) {
  size_t total = 0;
  for (std::string_view run : runs) total += run.size();
  char* merged = arena.allocate(total);
  size_t offset = 0;
  for (std::string_view run : runs) {
    std::memcpy(merged + offset, run.data(), run.size());
    offset += run.size();
  }
  return std::string_view(merged, total);
}
}  // namespace

std::string Element::to_string(bool pretty) const {
  Writer writer(pretty);
  write_element(writer, *this);
  return writer.take();
}

std::string Document::to_string(bool pretty) const {
  Writer writer(pretty);
  writer.declaration();
  write_element(writer, root);
  return writer.take();
}

Result<Document> parse_document(std::string input,
                                const ParseLimits& limits) {
  Document document;
  // Adopt the input: the DOM's views point straight into it, and the
  // pointer keeps those bytes where they are when the Document moves. The
  // owner gives the buffer back to the pool when the last reference lets
  // go, the Document's or a decoded Value's, so a received body is reused
  // only once nothing can read it any more.
  document.source = buffer_pool::share(std::move(input));
  PullParser parser(*document.source, &document.arena, limits);

  // One frame per open element. An element with a single text run keeps
  // it as a view (no copy, the SOAP payload case); from its second run on,
  // the runs collect in `runs` and are joined once, at the end tag.
  struct Frame {
    Element* element;
    size_t first_run;  // where this element's runs start in `runs`
  };
  std::vector<Frame> stack;
  std::vector<std::string_view> runs;
  bool have_root = false;

  while (true) {
    auto token = parser.next();
    if (!token.ok()) return token.error();
    switch (token.value().type) {
      case TokenType::kStartElement: {
        Element element;
        element.name = token.value().name;
        element.attributes.assign(token.value().attributes.begin(),
                                  token.value().attributes.end());
        if (stack.empty()) {
          if (have_root) {
            return Error(ErrorCode::kParseError, "multiple root elements");
          }
          document.root = std::move(element);
          stack.push_back(Frame{&document.root, runs.size()});
          have_root = true;
        } else {
          // Appending may reallocate the children vector of the parent but
          // never of the grandparents, so raw pointers into the stack stay
          // valid as long as we re-take the address after push_back.
          Element* parent = stack.back().element;
          parent->children.push_back(std::move(element));
          stack.push_back(Frame{&parent->children.back(), runs.size()});
        }
        break;
      }
      case TokenType::kEndElement: {
        const Frame& frame = stack.back();
        if (runs.size() > frame.first_run) {
          frame.element->text = join_runs(
              std::span(runs).subspan(frame.first_run), document.arena);
          runs.resize(frame.first_run);
        }
        stack.pop_back();
        break;
      }
      case TokenType::kText:
      case TokenType::kCData: {
        std::string_view run = token.value().text;
        if (stack.empty() || run.empty()) break;
        const Frame& frame = stack.back();
        Element& element = *frame.element;
        if (element.text.empty()) {
          element.text = run;
        } else {
          if (runs.size() == frame.first_run) runs.push_back(element.text);
          runs.push_back(run);
        }
        break;
      }
      case TokenType::kComment:
      case TokenType::kProcessingInstruction:
      case TokenType::kDeclaration:
        break;
      case TokenType::kEndOfDocument:
        return document;
    }
  }
}

}  // namespace spi::xml
