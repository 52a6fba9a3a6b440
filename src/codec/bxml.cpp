#include "codec/bxml.hpp"

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace spi::codec {

namespace {

constexpr std::string_view kMagic{"BX1\0", 4};

enum Op : unsigned char {
  kOpOpen = 0x01,
  kOpAttr = 0x02,
  kOpText = 0x03,
  kOpClose = 0x04,
  kOpEnd = 0x05,
};

// Name/value field tags (the first varint of a <name>/<value> field).
constexpr std::uint64_t kTagDefine = 0;   // inline bytes, added to dictionary
constexpr std::uint64_t kTagLiteral = 1;  // inline bytes, not remembered
constexpr std::uint64_t kTagRefBase = 2;  // tag - 2 indexes the dictionary

/// Dynamic dictionary hard cap: bounds decoder memory against a stream
/// that defines names forever. The encoder respects the same cap (falls
/// back to literals) so well-formed streams never hit it.
constexpr size_t kMaxDynamicEntries = 4096;

/// Attribute values longer than this are sent literal: remembering a
/// megabyte payload string would bloat both dictionaries for a value that
/// will never realistically repeat.
constexpr size_t kMaxRememberedValue = 64;

/// Names and short values the SOAP/SPI vocabulary makes predictable
/// (soap/envelope.cpp, core/wire.cpp, telemetry/trace.cpp,
/// resilience/deadline.cpp, soap/serializer.cpp, soap/wsse.cpp). Order is
/// the wire format: APPEND ONLY — inserting reshuffles every reference and
/// breaks cross-version decode.
constexpr std::array<std::string_view, 56> kStaticDictionary = {
    // Envelope skeleton.
    "SOAP-ENV:Envelope", "SOAP-ENV:Header", "SOAP-ENV:Body", "SOAP-ENV:Fault",
    "xmlns:SOAP-ENV", "xmlns:SOAP-ENC", "xmlns:xsd", "xmlns:xsi", "xmlns:spi",
    "http://schemas.xmlsoap.org/soap/envelope/",
    "http://schemas.xmlsoap.org/soap/encoding/",
    "http://www.w3.org/2001/XMLSchema",
    "http://www.w3.org/2001/XMLSchema-instance",
    "http://spi.example.org/2006/spi",
    // SPI wire format.
    "spi:Parallel_Method", "spi:Parallel_Response", "spi:Call",
    "spi:CallResponse", "spi:Remote_Execution", "id", "service", "operation",
    "spi:service", "return", "item", "data",
    // Header blocks (trace, deadline).
    "spi:Trace", "spi:TraceId", "spi:ParentId", "spi:Deadline",
    "spi:RemainingUs",
    // Typed values.
    "xsi:type", "xsi:nil", "SOAP-ENC:arrayType", "xsd:string", "xsd:int",
    "xsd:double", "xsd:boolean", "xsd:anyType", "SOAP-ENC:Array", "spi:Struct",
    "true", "false",
    // Faults.
    "faultcode", "faultstring", "faultactor", "detail", "spi:message",
    "SOAP-ENV:Client", "SOAP-ENV:Server",
    // WS-Security header vocabulary.
    "wsse:Security", "wsse:UsernameToken", "wsse:Username", "wsse:Password",
    "wsse:Nonce", "wsu:Timestamp"};

Error corrupt(std::string detail) {
  return Error(ErrorCode::kCodecError, "bxml: " + std::move(detail));
}

/// Same wording the tokenizer uses, so server-side limit counters see one
/// vocabulary regardless of which layer rejected the document.
Error parse_limit_error(std::string_view limit, std::string detail) {
  std::string message = "parse limit exceeded: ";
  message += limit;
  message += " (";
  message += detail;
  message += ")";
  return Error(ErrorCode::kParseError, std::move(message));
}

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (value & 0x7F)));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

// ---------------------------------------------------------------------------
// Encoder.

class Encoder {
 public:
  explicit Encoder(std::string& out) : out_(out) {
    for (size_t i = 0; i < kStaticDictionary.size(); ++i) {
      ids_.emplace(kStaticDictionary[i], i);
    }
  }

  void name_field(std::string_view name) { field(name, /*remember=*/true); }

  void value_field(std::string_view value) {
    field(value, value.size() <= kMaxRememberedValue);
  }

  void literal(std::string_view bytes) {
    put_varint(out_, bytes.size());
    out_.append(bytes);
  }

 private:
  void field(std::string_view bytes, bool remember) {
    if (auto it = ids_.find(bytes); it != ids_.end()) {
      put_varint(out_, kTagRefBase + it->second);
      return;
    }
    size_t next = ids_.size();
    if (remember && next - kStaticDictionary.size() < kMaxDynamicEntries) {
      put_varint(out_, kTagDefine);
      // The key must outlive the map: point it at owned storage.
      owned_.push_back(std::string(bytes));
      ids_.emplace(owned_.back(), next);
    } else {
      put_varint(out_, kTagLiteral);
    }
    literal(bytes);
  }

  std::string& out_;
  std::unordered_map<std::string_view, size_t> ids_;
  // Deque, not vector: element references must stay stable (the map keys
  // view into these strings, and short strings live in their SSO buffer).
  std::deque<std::string> owned_;
};

// ---------------------------------------------------------------------------
// Decoder.

class Decoder {
 public:
  Decoder(std::string_view wire, size_t max_decoded_bytes,
          const xml::ParseLimits& limits)
      : in_(wire), budget_(max_decoded_bytes), limits_(limits) {}

  Result<xml::Document> run() {
    xml::Document doc;
    std::vector<xml::Element> stack;
    std::vector<std::string> text_acc;
    bool have_root = false;

    for (;;) {
      std::uint64_t op = 0;
      if (Status s = varint(op); !s.ok()) return s.error();
      if (Status s = count_token(); !s.ok()) return s.error();
      switch (op) {
        case kOpOpen: {
          if (have_root && stack.empty()) {
            return corrupt("content after the root element");
          }
          if (stack.size() >= limits_.max_depth) {
            return parse_limit_error(
                "depth", "open depth " + std::to_string(stack.size() + 1));
          }
          std::string_view name;
          if (Status s = name_field(doc.arena, name); !s.ok()) return s.error();
          xml::Element element;
          element.name = name;
          stack.push_back(std::move(element));
          text_acc.emplace_back();
          break;
        }
        case kOpAttr: {
          if (stack.empty()) return corrupt("attribute outside any element");
          if (stack.back().attributes.size() >= limits_.max_attributes) {
            return parse_limit_error(
                "attributes",
                "element carries more than " +
                    std::to_string(limits_.max_attributes) + " attributes");
          }
          std::string_view name, value;
          if (Status s = name_field(doc.arena, name); !s.ok()) return s.error();
          if (Status s = value_field(doc.arena, value); !s.ok()) {
            return s.error();
          }
          stack.back().attributes.push_back({name, value});
          break;
        }
        case kOpText: {
          if (stack.empty()) return corrupt("text outside any element");
          std::string_view bytes;
          if (Status s = literal(bytes, limits_.max_attribute_value_bytes,
                                 "attribute-value-bytes");
              !s.ok()) {
            return s.error();
          }
          text_acc.back().append(bytes);
          break;
        }
        case kOpClose: {
          if (stack.empty()) return corrupt("close without an open element");
          xml::Element done = std::move(stack.back());
          stack.pop_back();
          if (!text_acc.back().empty()) {
            done.text = doc.arena.intern(text_acc.back());
          }
          text_acc.pop_back();
          if (stack.empty()) {
            doc.root = std::move(done);
            have_root = true;
          } else {
            stack.back().children.push_back(std::move(done));
          }
          break;
        }
        case kOpEnd: {
          if (!stack.empty()) return corrupt("end with unclosed elements");
          if (!have_root) return corrupt("document has no root element");
          if (pos_ != in_.size()) return corrupt("trailing bytes after end op");
          return doc;
        }
        default:
          return corrupt("unknown opcode " + std::to_string(op));
      }
    }
  }

 private:
  Status varint(std::uint64_t& value) {
    value = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      if (pos_ >= in_.size()) return corrupt("truncated varint");
      unsigned char byte = static_cast<unsigned char>(in_[pos_++]);
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return Status::ok_status();
      shift += 7;
    }
    return corrupt("varint longer than 10 bytes");
  }

  Status count_token() {
    if (++tokens_ > limits_.max_tokens) {
      return parse_limit_error("tokens",
                               "more than " +
                                   std::to_string(limits_.max_tokens) +
                                   " ops in one document");
    }
    return Status::ok_status();
  }

  /// Charges the logical decoded size. Dictionary references charge the
  /// referenced length on every use — the budget bounds what the decoded
  /// document claims, not what the wire spent.
  Status charge(size_t bytes) {
    used_ += bytes;
    if (used_ > budget_) return decoded_limit_error("bxml", budget_);
    return Status::ok_status();
  }

  Status literal(std::string_view& bytes, size_t max_len,
                 std::string_view limit_name) {
    std::uint64_t len = 0;
    if (Status s = varint(len); !s.ok()) return s;
    if (len > max_len) {
      return parse_limit_error(limit_name,
                               "span of " + std::to_string(len) + " bytes");
    }
    if (len > in_.size() - pos_) return corrupt("truncated byte span");
    if (Status s = charge(static_cast<size_t>(len)); !s.ok()) return s;
    bytes = in_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::ok_status();
  }

  Status field(MonotonicArena& arena, std::string_view& out, size_t max_len,
               std::string_view limit_name, bool may_define) {
    std::uint64_t tag = 0;
    if (Status s = varint(tag); !s.ok()) return s;
    if (tag >= kTagRefBase) {
      size_t index = static_cast<size_t>(tag - kTagRefBase);
      if (index < kStaticDictionary.size()) {
        out = kStaticDictionary[index];
      } else if (index - kStaticDictionary.size() < dynamic_.size()) {
        out = dynamic_[index - kStaticDictionary.size()];
      } else {
        return corrupt("dictionary reference " + std::to_string(index) +
                       " out of range");
      }
      return charge(out.size());
    }
    std::string_view bytes;
    if (Status s = literal(bytes, max_len, limit_name); !s.ok()) return s;
    // Interned into the Document's arena: dictionary views must stay valid
    // for the Document's whole lifetime, past this decode call.
    out = arena.intern(bytes);
    if (tag == kTagDefine) {
      if (!may_define) return corrupt("value defined where only names may");
      if (dynamic_.size() >= kMaxDynamicEntries) {
        return corrupt("dynamic dictionary overflow");
      }
      dynamic_.push_back(out);
    }
    return Status::ok_status();
  }

  Status name_field(MonotonicArena& arena, std::string_view& out) {
    return field(arena, out, limits_.max_name_bytes, "name-bytes",
                 /*may_define=*/true);
  }

  Status value_field(MonotonicArena& arena, std::string_view& out) {
    return field(arena, out, limits_.max_attribute_value_bytes,
                 "attribute-value-bytes", /*may_define=*/true);
  }

  std::string_view in_;
  size_t pos_ = 0;
  size_t budget_;
  size_t used_ = 0;
  size_t tokens_ = 0;
  xml::ParseLimits limits_;
  std::vector<std::string_view> dynamic_;
};

}  // namespace

std::span<const std::string_view> bxml_static_dictionary() {
  return {kStaticDictionary.data(), kStaticDictionary.size()};
}

Result<std::string> BxmlCodec::encode(std::string_view plain) const {
  // The envelope is our own output, but encode is also exercised by fuzzing
  // and tests on arbitrary text — so the tokenizer's default resource
  // limits stay on.
  xml::PullParser parser(plain);
  std::string out;
  out.reserve(plain.size() / 2 + 64);
  out.append(kMagic);
  Encoder encoder(out);
  for (;;) {
    Result<xml::Token> token = parser.next();
    if (!token.ok()) {
      return Error(ErrorCode::kInvalidArgument,
                   "bxml: encode input is not well-formed XML: " +
                       token.error().message());
    }
    const xml::Token& t = token.value();
    bool done = false;
    switch (t.type) {
      case xml::TokenType::kStartElement:
        out.push_back(static_cast<char>(kOpOpen));
        encoder.name_field(t.name);
        for (const xml::Attribute& attribute : t.attributes) {
          out.push_back(static_cast<char>(kOpAttr));
          encoder.name_field(attribute.name);
          encoder.value_field(attribute.value);
        }
        break;
      case xml::TokenType::kEndElement:
        out.push_back(static_cast<char>(kOpClose));
        break;
      case xml::TokenType::kText:
      case xml::TokenType::kCData:
        if (!t.text.empty()) {
          out.push_back(static_cast<char>(kOpText));
          encoder.literal(t.text);
        }
        break;
      case xml::TokenType::kEndOfDocument:
        out.push_back(static_cast<char>(kOpEnd));
        done = true;
        break;
      default:
        break;  // comments, PIs, and the declaration carry no SOAP meaning
    }
    if (done) break;
  }
  return out;
}

Result<xml::Document> BxmlCodec::decode_document(
    std::string_view wire, size_t max_decoded_bytes,
    const xml::ParseLimits& limits) const {
  if (wire.size() < kMagic.size() || wire.substr(0, kMagic.size()) != kMagic) {
    return corrupt("missing BX1 magic");
  }
  Decoder decoder(wire.substr(kMagic.size()), max_decoded_bytes, limits);
  return decoder.run();
}

Result<std::string> BxmlCodec::decode(std::string_view wire,
                                      size_t max_decoded_bytes,
                                      const xml::ParseLimits& limits) const {
  Result<xml::Document> document =
      decode_document(wire, max_decoded_bytes, limits);
  if (!document.ok()) return document.error();
  return document.value().to_string();
}

}  // namespace spi::codec
