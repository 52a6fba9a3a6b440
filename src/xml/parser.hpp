// XML parsing, two APIs over one tokenizer:
//   * PullParser — incremental token stream (used by the envelope and pack
//     views of core/wire_view.hpp and by the bxml encoder)
//   * parse_document — DOM builder (used by SOAP envelope handling)
// Covers the subset SOAP 1.1 needs: elements, attributes, character data,
// CDATA, comments, PIs, the XML declaration, and the five predefined plus
// numeric entities. No DTDs (SOAP forbids them).
//
// Zero-copy contract: tokens and DOM nodes hold std::string_view, never
// owning strings. A Token's views borrow from the parser's input buffer,
// or — when a run needed entity expansion — from the parser's scratch
// arena; both live as long as the parser. A Document owns the bytes it
// was parsed from: parse_document adopts its input string (moved in, not
// copied), and the DOM's views borrow from that string or from the
// Document's arena, so a Document is self-contained. Consumers that need
// data beyond those lifetimes copy explicitly (OwnedToken,
// std::string(view)).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"

namespace spi::xml {

/// Resource-governance bounds enforced by the tokenizer (DESIGN.md §11).
/// A SOAP endpoint parses attacker-controlled bytes, so every dimension a
/// hostile document can inflate — nesting, token count, attribute fan-out,
/// name/value width, entity-expansion output — is budgeted and fails fast
/// with kParseError ("parse limit exceeded: <limit> ...") instead of
/// exhausting memory or CPU. Defaults clear the Figure-7 workload (128 x
/// 100 KB payloads) with wide margin; 0 never means unlimited here — a
/// zero limit rejects everything, which keeps the checks branch-simple.
struct ParseLimits {
  /// Maximum open-element nesting depth.
  size_t max_depth = 256;
  /// Maximum tokens per document (start/end/text/...; synthesized end
  /// tokens for self-closing elements count too).
  size_t max_tokens = 1u << 20;
  /// Maximum attributes on a single element.
  size_t max_attributes = 64;
  /// Maximum bytes in one element/attribute name.
  size_t max_name_bytes = 1024;
  /// Maximum raw bytes in one attribute value.
  size_t max_attribute_value_bytes = 1u << 20;
  /// Cumulative entity-expansion OUTPUT budget per document — the
  /// billion-laughs guard. Expansion here never grows a run (no DTD
  /// entities), so the budget bounds scratch-arena growth directly.
  size_t max_entity_expansion_bytes = 16u << 20;
};

struct Attribute {
  std::string_view name;
  std::string_view value;
  friend bool operator==(const Attribute&, const Attribute&) = default;
};

enum class TokenType {
  kStartElement,  // <name attr="v"> or <name/>, see self_closing
  kEndElement,    // </name>; also synthesized for self-closing elements
  kText,          // character data (entities expanded)
  kCData,         // <![CDATA[...]]>
  kComment,       // <!-- ... -->
  kProcessingInstruction,
  kDeclaration,   // <?xml ... ?>
  kEndOfDocument,
};

std::string_view token_type_name(TokenType type);

struct Token {
  TokenType type = TokenType::kEndOfDocument;
  std::string_view name;               // element/PI name
  std::span<const Attribute> attributes;  // start elements only; the span's
                                          // storage is reused by the next
                                          // next() call — read it first
  std::string_view text;               // text/cdata/comment content
  bool self_closing = false;           // <name/>
};

/// Deep-copying snapshot of a Token for consumers that outlive the parse
/// (tests, tooling). Hot paths read the Token views directly.
struct OwnedAttribute {
  std::string name;
  std::string value;
  friend bool operator==(const OwnedAttribute&, const OwnedAttribute&) =
      default;
};

struct OwnedToken {
  TokenType type = TokenType::kEndOfDocument;
  std::string name;
  std::vector<OwnedAttribute> attributes;
  std::string text;
  bool self_closing = false;

  OwnedToken() = default;
  explicit OwnedToken(const Token& token);
};

/// Tokenizer + well-formedness checker. next() returns tokens until
/// kEndOfDocument; a self-closing element yields kStartElement
/// (self_closing=true) followed by a synthesized kEndElement.
///
/// Token name/text views stay valid for the parser's lifetime (they point
/// into the input or the scratch arena); Token::attributes is only valid
/// until the next next() call. Passing an external `scratch` arena makes
/// expanded text live as long as that arena instead (parse_document hands
/// in the Document's arena so DOM text needs no second copy).
class PullParser {
 public:
  explicit PullParser(std::string_view input,
                      MonotonicArena* scratch = nullptr,
                      const ParseLimits& limits = {});

  PullParser(const PullParser&) = delete;
  PullParser& operator=(const PullParser&) = delete;

  Result<Token> next();

  /// Byte offset of the parse cursor; used in error messages.
  size_t offset() const { return pos_; }

  /// Current element nesting depth (after the last returned token).
  size_t depth() const { return open_.size(); }

 private:
  Result<Token> parse_markup();
  Result<Token> parse_start_or_empty();
  Result<Token> parse_end_tag();
  Result<Token> parse_text();
  Result<Token> parse_bang();  // comments, CDATA
  Result<Token> parse_pi();    // <?...?> incl. xml declaration
  Error err(std::string message) const;
  /// kParseError "parse limit exceeded: <limit> (<detail>)" — the fixed
  /// prefix is what lets upper layers count rejections per limit.
  Error limit_err(std::string_view limit, std::string detail) const;
  void skip_whitespace();
  Result<std::string_view> read_name();
  /// Lazy expansion: returns `raw` itself when it has no '&', otherwise
  /// the expanded copy written into the scratch arena.
  Result<std::string_view> expand(std::string_view raw,
                                  const char* context);

  std::string_view input_;
  ParseLimits limits_;
  size_t pos_ = 0;
  size_t tokens_ = 0;               // tokens produced so far
  size_t expansion_bytes_ = 0;      // cumulative entity-expansion output
  std::vector<std::string_view> open_;  // open element stack
  std::vector<Attribute> attribute_pool_;  // reused per start tag
  MonotonicArena own_scratch_;
  MonotonicArena* scratch_;  // == &own_scratch_ unless caller-provided
  bool seen_root_ = false;
  bool pending_end_ = false;       // synthesized end for self-closing
  std::string_view pending_end_name_;
};

/// DOM node. Children are element nodes; direct character data is
/// concatenated into `text` (sufficient for SOAP, where mixed content
/// does not carry meaning). Name/text/attribute views borrow from the
/// owning Document's source bytes or arena.
class Element {
 public:
  std::string_view name;              // qualified name as written
  std::vector<Attribute> attributes;
  std::vector<Element> children;
  std::string_view text;

  /// Name without its namespace prefix: "SOAP-ENV:Body" -> "Body".
  std::string_view local_name() const;

  /// First child whose local name matches, or nullptr.
  const Element* first_child(std::string_view local) const;
  Element* first_child(std::string_view local);

  /// All children whose local name matches (document order).
  std::vector<const Element*> children_named(std::string_view local) const;

  /// Attribute value by exact (qualified) name.
  std::optional<std::string_view> attribute(std::string_view name) const;

  /// `text` with surrounding ASCII whitespace stripped.
  std::string_view text_trimmed() const;

  /// Re-serializes this subtree.
  std::string to_string(bool pretty = false) const;

  friend bool operator==(const Element&, const Element&) = default;
};

/// The DOM plus the bytes every view in it borrows from: the adopted
/// source text and the arena (entity expansions, joined text runs).
/// Movable but not copyable. Both stay put when a Document moves: the
/// source sits behind a pointer (a short std::string keeps its bytes
/// inside the string object, so moving the string itself would strand
/// every view) and arena chunks are separately allocated.
struct Document {
  Element root;
  /// The text parse_document adopted; null for a Document built without
  /// text (the bxml decoder), whose views all point into the arena. The
  /// pointer is shared so that values decoded from the text can keep it
  /// alive after the Document is gone (soap::read_value).
  std::shared_ptr<const std::string> source;
  MonotonicArena arena;

  Document() = default;
  Document(Document&&) noexcept = default;
  Document& operator=(Document&&) noexcept = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  std::string to_string(bool pretty = false) const;
};

/// Parses a complete document into a DOM. Comments/PIs are dropped.
/// The Document adopts `input`: its views point into those bytes, so a
/// caller that hands over its buffer with std::move pays no copy, and one
/// that holds only a view writes the copy itself (std::string(view)).
/// `limits` bounds what a hostile document may cost (see ParseLimits).
Result<Document> parse_document(std::string input,
                                const ParseLimits& limits = {});

}  // namespace spi::xml
