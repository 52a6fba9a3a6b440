#include "core/wire_view.hpp"

#include <cstring>

#include "common/string_util.hpp"
#include "soap/streaming.hpp"

namespace spi::core::wire {

namespace {

using xml::TokenType;

std::string_view local_of(std::string_view name) {
  size_t colon = name.rfind(':');
  return colon == std::string_view::npos ? name : name.substr(colon + 1);
}

std::optional<std::string_view> attribute_of(const xml::Token& token,
                                             std::string_view name) {
  for (const xml::Attribute& attribute : token.attributes) {
    if (attribute.name == name) return attribute.value;
  }
  return std::nullopt;
}

bool is_namespace_declaration(std::string_view name) {
  return name == "xmlns" || name.starts_with("xmlns:");
}

/// True when soap::open_envelope declares exactly this binding, so a call
/// re-framed in a fresh envelope needs no copy of it.
bool declared_by_framing(const RawAttribute& attribute) {
  static constexpr std::pair<std::string_view, std::string_view> kFramed[] = {
      {"xmlns:SOAP-ENV", soap::kEnvelopeNs}, {"xmlns:SOAP-ENC", soap::kEncodingNs},
      {"xmlns:xsd", soap::kXsdNs},           {"xmlns:xsi", soap::kXsiNs},
      {"xmlns:spi", soap::kSpiNs},
  };
  for (const auto& [name, uri] : kFramed) {
    if (attribute.name == name && attribute.value == uri) return true;
  }
  return false;
}

/// The direct text of an element whose start token was just consumed
/// (runs joined, nested elements skipped), through its end tag.
Result<std::string> read_text(xml::PullParser& parser) {
  std::string text;
  while (true) {
    auto token = parser.next();
    if (!token.ok()) return token.error();
    switch (token.value().type) {
      case TokenType::kEndElement:
        return text;
      case TokenType::kText:
      case TokenType::kCData:
        text += token.value().text;
        break;
      case TokenType::kStartElement:
        if (Status skipped = soap::skip_subtree(parser, token.value());
            !skipped.ok()) {
          return skipped.error();
        }
        break;
      case TokenType::kEndOfDocument:
        return Error(ErrorCode::kParseError, "unexpected end of document");
      default:
        break;
    }
  }
}

/// Reads the first child element named `first` and the first named
/// `second` of a header block (`second` may be empty), through the block's
/// end. A missing child leaves its text unset.
Status read_block_children(xml::PullParser& parser, std::string_view first,
                           std::optional<std::string>& first_text,
                           std::string_view second,
                           std::optional<std::string>& second_text) {
  while (true) {
    auto token = parser.next();
    if (!token.ok()) return token.error();
    const xml::Token& t = token.value();
    if (t.type == TokenType::kEndElement) return Status();
    if (t.type == TokenType::kEndOfDocument) {
      return Error(ErrorCode::kParseError, "unexpected end of document");
    }
    if (t.type != TokenType::kStartElement) continue;
    std::string_view local = local_of(t.name);
    std::optional<std::string>* slot = nullptr;
    if (local == first && !first_text) {
      slot = &first_text;
    } else if (!second.empty() && local == second && !second_text) {
      slot = &second_text;
    }
    if (slot == nullptr) {
      if (Status skipped = soap::skip_subtree(parser, t); !skipped.ok()) {
        return skipped;
      }
      continue;
    }
    auto text = read_text(parser);
    if (!text.ok()) return text.error();
    *slot = std::move(text).value();
  }
}

Result<std::uint32_t> read_id(const xml::Token& start, std::string_view what) {
  auto id = attribute_of(start, "id");
  auto parsed = id ? parse_u64(*id) : std::nullopt;
  if (!parsed || *parsed > 0xffffffffULL) {
    return Error(ErrorCode::kProtocolError,
                 std::string(what) + " has a missing/invalid id");
  }
  return static_cast<std::uint32_t>(*parsed);
}

/// The raw form of `attribute`, a token attribute of `text` (its name is a
/// view into the text, its value possibly an expansion elsewhere).
RawAttribute raw_attribute(std::string_view text,
                           const xml::Attribute& attribute) {
  // The tokenizer accepted this start tag, so name, '=' and a quoted
  // value follow one another, separated only by whitespace.
  size_t at = static_cast<size_t>(attribute.name.data() - text.data()) +
              attribute.name.size();
  auto skip_ws = [&] {
    while (at < text.size() && (text[at] == ' ' || text[at] == '\t' ||
                                text[at] == '\r' || text[at] == '\n')) {
      ++at;
    }
  };
  skip_ws();
  ++at;  // '='
  skip_ws();
  const char quote = text[at++];
  const size_t end = text.find(quote, at);
  return RawAttribute{attribute.name, text.substr(at, end - at), quote};
}

}  // namespace

// --- EnvelopeReader ---------------------------------------------------------

EnvelopeReader::EnvelopeReader(std::string_view text, MonotonicArena* scratch,
                               const xml::ParseLimits& parse_limits,
                               const soap::EnvelopeLimits& envelope_limits)
    : text_(text),
      parser_(text, scratch, parse_limits),
      envelope_limits_(envelope_limits) {}

void EnvelopeReader::note_namespaces(const xml::Token& start) {
  for (const xml::Attribute& attribute : start.attributes) {
    if (is_namespace_declaration(attribute.name)) {
      namespaces_.push_back(raw_attribute(text_, attribute));
    }
  }
}

Status EnvelopeReader::read_header() {
  size_t blocks = 0;
  while (true) {
    auto token = parser_.next();
    if (!token.ok()) return token.error();
    const xml::Token& t = token.value();
    if (t.type == TokenType::kEndElement) return Status();
    if (t.type == TokenType::kEndOfDocument) {
      return Error(ErrorCode::kParseError, "unexpected end of document");
    }
    if (t.type != TokenType::kStartElement) continue;
    if (++blocks > envelope_limits_.max_header_blocks) {
      return soap::envelope_limit_error("header-blocks", blocks,
                                        envelope_limits_.max_header_blocks);
    }
    // The first block of each kind that carries a valid value wins, as
    // in TraceContext/Deadline::from_header_blocks.
    std::string_view local = local_of(t.name);
    if (local == "Trace" && !have_trace_) {
      std::optional<std::string> trace_id;
      std::optional<std::string> parent_id;
      if (Status read = read_block_children(parser_, "TraceId", trace_id,
                                             "ParentId", parent_id);
          !read.ok()) {
        return read;
      }
      if (trace_id) {
        if (auto context = telemetry::TraceContext::from_ids(
                trim(*trace_id), parent_id ? trim(*parent_id) : "")) {
          trace_ = std::move(*context);
          have_trace_ = true;
        }
      }
      continue;
    }
    if (local == "Deadline" && !have_deadline_) {
      std::optional<std::string> remaining;
      std::optional<std::string> unused;
      if (Status read =
              read_block_children(parser_, "RemainingUs", remaining, "", unused);
          !read.ok()) {
        return read;
      }
      if (remaining) {
        if (auto deadline = resilience::Deadline::from_remaining_us(
                *remaining, RealClock::instance().now())) {
          deadline_ = *deadline;
          have_deadline_ = true;
        }
      }
      continue;
    }
    if (Status skipped = soap::skip_subtree(parser_, t); !skipped.ok()) {
      return skipped;
    }
  }
}

Result<xml::Token> EnvelopeReader::open_entry(std::string_view what) {
  xml::Token root;
  while (true) {
    auto token = parser_.next();
    if (!token.ok()) return token.error();
    if (token.value().type == TokenType::kStartElement) {
      root = token.value();
      break;
    }
    if (token.value().type == TokenType::kEndOfDocument) {
      return Error(ErrorCode::kProtocolError, "empty document");
    }
  }
  if (local_of(root.name) != "Envelope") {
    return Error(ErrorCode::kProtocolError,
                 "root element is <" + std::string(root.name) +
                     ">, expected Envelope");
  }
  note_namespaces(root);

  while (true) {
    auto token = parser_.next();
    if (!token.ok()) return token.error();
    const xml::Token& t = token.value();
    if (t.type == TokenType::kEndElement ||
        t.type == TokenType::kEndOfDocument) {
      return Error(ErrorCode::kProtocolError, "envelope has no Body");
    }
    if (t.type != TokenType::kStartElement) continue;
    std::string_view local = local_of(t.name);
    if (local == "Header") {
      if (Status read = read_header(); !read.ok()) return read.error();
      continue;
    }
    if (local != "Body") {
      // Other envelope children are ignored, as Envelope::parse does.
      if (Status skipped = soap::skip_subtree(parser_, t); !skipped.ok()) {
        return skipped.error();
      }
      continue;
    }
    note_namespaces(t);
    while (true) {
      entry_begin_ = parser_.offset();
      auto entry = parser_.next();
      if (!entry.ok()) return entry.error();
      if (entry.value().type == TokenType::kStartElement) {
        if (envelope_limits_.max_body_entries == 0) {
          return soap::envelope_limit_error("body-entries", 1, 0);
        }
        return entry;
      }
      if (entry.value().type == TokenType::kEndElement) {
        return Error(ErrorCode::kProtocolError,
                     std::string(what) + " body is empty");
      }
    }
  }
}

Status EnvelopeReader::close(std::string_view what) {
  // The rest of the Body: the entry must have been its only one.
  while (true) {
    auto token = parser_.next();
    if (!token.ok()) return token.error();
    if (token.value().type == TokenType::kEndElement) break;
    if (token.value().type == TokenType::kStartElement) {
      return Error(ErrorCode::kProtocolError,
                   std::string(what) + " body must contain exactly one entry");
    }
  }
  // The rest of the Envelope.
  while (true) {
    auto token = parser_.next();
    if (!token.ok()) return token.error();
    const xml::Token& t = token.value();
    if (t.type == TokenType::kEndElement) break;
    if (t.type != TokenType::kStartElement) continue;
    std::string_view local = local_of(t.name);
    if (local == "Header") {
      return Error(ErrorCode::kProtocolError, "Header after Body");
    }
    if (local == "Body") {
      return Error(ErrorCode::kProtocolError, "multiple Body elements");
    }
    if (Status skipped = soap::skip_subtree(parser_, t); !skipped.ok()) {
      return skipped;
    }
  }
  // Whatever follows the root must still tokenize.
  while (true) {
    auto token = parser_.next();
    if (!token.ok()) return token.error();
    if (token.value().type == TokenType::kEndOfDocument) return Status();
  }
}

// --- request side -----------------------------------------------------------

namespace {

/// Reads a call's parameters (its start token just consumed) through its
/// end tag: checks each value as read_value would, picks the shard key and
/// marks where the content ends.
struct CallBody {
  std::string_view content;
  std::string_view key;
  bool keyed = false;
};

Result<CallBody> read_call_body(xml::PullParser& parser, std::string_view text,
                                std::string_view shard_param,
                                MonotonicArena& arena) {
  CallBody body;
  const size_t content_begin = parser.offset();
  while (true) {
    const size_t before = parser.offset();
    auto token = parser.next();
    if (!token.ok()) return token.error();
    const xml::Token& t = token.value();
    if (t.type == TokenType::kEndElement) {
      body.content = text.substr(content_begin, before - content_begin);
      return body;
    }
    if (t.type == TokenType::kEndOfDocument) {
      return Error(ErrorCode::kParseError, "unexpected end of document");
    }
    if (t.type != TokenType::kStartElement) continue;
    const std::string_view name = local_of(t.name);
    const bool candidate =
        !body.keyed && !shard_param.empty() && name == shard_param;
    std::string_view value_text;
    auto is_string =
        soap::check_value(parser, t, candidate ? &value_text : nullptr, arena);
    if (!is_string.ok()) {
      return is_string.wrap_error("parameter '" + std::string(name) + "'");
    }
    if (candidate && is_string.value()) {
      body.key = value_text;
      body.keyed = true;
    }
  }
}

std::string_view join_key(std::string_view service, std::string_view operation,
                          MonotonicArena& arena) {
  char* out = arena.allocate(service.size() + 1 + operation.size());
  std::memcpy(out, service.data(), service.size());
  out[service.size()] = '/';
  std::memcpy(out + service.size() + 1, operation.data(), operation.size());
  return std::string_view(out, service.size() + 1 + operation.size());
}

}  // namespace

Result<PackView> view_request(std::string_view text,
                              const xml::ParseLimits& parse_limits,
                              const soap::EnvelopeLimits& envelope_limits,
                              std::string_view shard_param) {
  PackView view;
  EnvelopeReader reader(text, &view.arena, parse_limits, envelope_limits);
  auto opened = reader.open_entry("request");
  if (!opened.ok()) return opened.error();
  const xml::Token entry = opened.value();
  const std::string_view entry_name = local_of(entry.name);
  view.trace = reader.trace();
  view.deadline = reader.deadline();
  if (entry_name == "Remote_Execution") {
    view.kind = ParsedRequest::Kind::kPlan;
    view.packed = true;
    return view;
  }
  xml::PullParser& parser = reader.parser();

  // Namespace bindings the calls inherit: outer declarations first, an
  // inner one replacing an outer one of the same name; the framing's own
  // are left out. They head the attribute pool.
  std::vector<RawAttribute>& pool = view.attribute_pool;
  auto inherit = [&pool](const RawAttribute& declaration) {
    for (RawAttribute& kept : pool) {
      if (kept.name == declaration.name) {
        kept = declaration;
        return;
      }
    }
    pool.push_back(declaration);
  };
  for (const RawAttribute& declaration : reader.namespaces()) {
    inherit(declaration);
  }
  const bool packed = entry_name == "Parallel_Method";
  if (packed) {
    for (const xml::Attribute& attribute : entry.attributes) {
      if (is_namespace_declaration(attribute.name)) {
        inherit(raw_attribute(text, attribute));
      }
    }
  }
  std::erase_if(pool, declared_by_framing);
  const size_t inherited = pool.size();

  // Per call, where its own attributes sit in the pool; spans are taken
  // once the pool has stopped growing.
  struct Kept {
    size_t begin;
    size_t count;
  };
  std::vector<Kept> kept;

  auto read_call = [&](const xml::Token& start, bool is_call) -> Status {
    CallView call;
    const size_t begin = pool.size();
    std::optional<std::string_view> service;
    std::optional<std::string_view> operation;
    for (const xml::Attribute& attribute : start.attributes) {
      if (is_call && attribute.name == "id") continue;
      if (is_call ? attribute.name == "service"
                  : attribute.name == "spi:service") {
        service = attribute.value;
        call.service_attr = raw_attribute(text, attribute);
      } else if (is_call && attribute.name == "operation") {
        operation = attribute.value;
        call.operation_attr = raw_attribute(text, attribute);
      } else {
        pool.push_back(raw_attribute(text, attribute));
      }
    }
    if (is_call) {
      auto id = read_id(start, "spi:Call");
      if (!id.ok()) return id.error();
      call.id = id.value();
      if (!service || service->empty() || !operation || operation->empty()) {
        return Error(ErrorCode::kProtocolError,
                     "spi:Call missing service/operation attribute");
      }
    } else {
      if (!service || service->empty()) {
        return Error(ErrorCode::kProtocolError,
                     "request is missing the spi:service attribute");
      }
      // The traditional form names the operation by its element.
      operation = local_of(start.name);
      call.operation_attr = RawAttribute{"operation", *operation, '"'};
    }
    call.service = *service;
    call.operation = *operation;

    auto body = read_call_body(parser, text, shard_param, view.arena);
    if (!body.ok()) return body.error();
    call.content = body.value().content;
    call.route_key = body.value().keyed
                         ? body.value().key
                         : join_key(call.service, call.operation, view.arena);
    kept.push_back(Kept{begin, pool.size() - begin});
    view.calls.push_back(call);
    return Status();
  };

  if (packed) {
    view.kind = ParsedRequest::Kind::kPacked;
    view.packed = true;
    while (true) {
      auto token = parser.next();
      if (!token.ok()) return token.error();
      const xml::Token& t = token.value();
      if (t.type == TokenType::kEndElement) break;
      if (t.type != TokenType::kStartElement) continue;
      if (local_of(t.name) != "Call") {
        return Error(ErrorCode::kProtocolError,
                     "unexpected <" + std::string(t.name) +
                         "> in Parallel_Method");
      }
      if (Status read = read_call(t, true); !read.ok()) return read.error();
    }
    if (view.calls.empty()) {
      return Error(ErrorCode::kProtocolError, "Parallel_Method has no calls");
    }
  } else {
    view.kind = ParsedRequest::Kind::kSingle;
    view.packed = false;
    if (Status read = read_call(entry, false); !read.ok()) return read.error();
  }
  if (Status closed = reader.close("request"); !closed.ok()) {
    return closed.error();
  }

  const std::span<const RawAttribute> all(pool);
  for (size_t i = 0; i < view.calls.size(); ++i) {
    view.calls[i].attributes = all.subspan(kept[i].begin, kept[i].count);
    view.calls[i].namespaces = all.first(inherited);
  }
  return view;
}

namespace {

void write_kept_attributes(xml::Writer& writer, const CallView& call) {
  for (const RawAttribute& attribute : call.attributes) {
    writer.raw_attribute(attribute.name, attribute.value, attribute.quote);
  }
  for (const RawAttribute& declaration : call.namespaces) {
    bool shadowed = false;
    for (const RawAttribute& own : call.attributes) {
      shadowed = shadowed || own.name == declaration.name;
    }
    if (!shadowed) {
      writer.raw_attribute(declaration.name, declaration.value,
                           declaration.quote);
    }
  }
}

}  // namespace

void write_spliced_request(xml::Writer& writer,
                           std::span<const CallView> calls, bool packed) {
  if (!packed) {
    const CallView& call = calls.front();
    writer.start_element("spi:" + std::string(call.operation));
    writer.raw_attribute("spi:service", call.service_attr.value,
                         call.service_attr.quote);
    write_kept_attributes(writer, call);
    if (!call.content.empty()) writer.raw(call.content);
    writer.end_element();
    return;
  }
  writer.start_element("spi:Parallel_Method");
  std::string id;
  for (size_t i = 0; i < calls.size(); ++i) {
    const CallView& call = calls[i];
    writer.start_element("spi:Call");
    id.clear();
    append_u64(id, i);
    writer.attribute("id", id);
    writer.raw_attribute("service", call.service_attr.value,
                         call.service_attr.quote);
    writer.raw_attribute("operation", call.operation_attr.value,
                         call.operation_attr.quote);
    write_kept_attributes(writer, call);
    if (!call.content.empty()) writer.raw(call.content);
    writer.end_element();
  }
  writer.end_element();
}

size_t estimate_spliced_request_bytes(std::span<const CallView> calls) {
  size_t bytes = 64;  // Parallel_Method wrapper
  for (const CallView& call : calls) {
    bytes += 64 + call.service_attr.value.size() +
             call.operation_attr.value.size() + call.content.size();
    for (const RawAttribute& attribute : call.attributes) {
      bytes += 4 + attribute.name.size() + attribute.value.size();
    }
    for (const RawAttribute& declaration : call.namespaces) {
      bytes += 4 + declaration.name.size() + declaration.value.size();
    }
  }
  return bytes;
}

// --- response side ----------------------------------------------------------

namespace {

/// Decodes a fault element from its bytes, which the outcome keeps. Faults
/// are the only part of a reply a relay decodes; they are small and rare,
/// so the DOM reader (and with it Fault::from_element's exact rules) does
/// the work.
Result<RelayedOutcome> decode_fault(std::string_view bytes,
                                    const xml::ParseLimits& limits) {
  auto document = xml::parse_document(std::string(bytes), limits);
  if (!document.ok()) return document.wrap_error("nested Fault");
  auto fault = soap::Fault::from_element(document.value().root);
  if (!fault) return Error(ErrorCode::kProtocolError, "malformed nested Fault");
  return RelayedOutcome(fault->to_error(), bytes);
}

/// Reads one response entry (its start token just consumed) through its
/// end tag, as read_outcome reads its DOM twin: a Fault child wins, else
/// the first <return> child, whose value must check. Errors returned are
/// message-level (parse_response would reject the whole reply).
Result<RelayedOutcome> read_relayed(xml::PullParser& parser,
                                    std::string_view text,
                                    const xml::ParseLimits& limits,
                                    MonotonicArena& arena) {
  std::optional<std::string_view> fault;
  std::optional<std::string_view> returned;
  Status return_check;
  while (true) {
    const size_t before = parser.offset();
    auto token = parser.next();
    if (!token.ok()) return token.error();
    const xml::Token& t = token.value();
    if (t.type == TokenType::kEndElement) break;
    if (t.type == TokenType::kEndOfDocument) {
      return Error(ErrorCode::kParseError, "unexpected end of document");
    }
    if (t.type != TokenType::kStartElement) continue;
    const std::string_view local = local_of(t.name);
    if (local == "return" && !returned) {
      auto checked = soap::check_value(parser, t, nullptr, arena);
      if (!checked.ok()) return_check = checked.error();
      returned = text.substr(before, parser.offset() - before);
      continue;
    }
    if (Status skipped = soap::skip_subtree(parser, t); !skipped.ok()) {
      return skipped.error();
    }
    if (local == "Fault" && !fault) {
      fault = text.substr(before, parser.offset() - before);
    }
  }
  if (fault) return decode_fault(*fault, limits);
  if (returned) {
    if (!return_check.ok()) return return_check.error().wrap("return value");
    return RelayedOutcome(*returned);
  }
  return Error(ErrorCode::kProtocolError,
               "response entry has neither <return> nor <Fault>");
}

}  // namespace

Result<ReplyView> view_response(std::string_view text,
                                const xml::ParseLimits& parse_limits,
                                const soap::EnvelopeLimits& limits) {
  ReplyView reply;
  MonotonicArena scratch;  // joined scalar text, if runs split any
  EnvelopeReader reader(text, nullptr, parse_limits, limits);
  auto opened = reader.open_entry("response");
  if (!opened.ok()) return opened.error();
  const xml::Token entry = opened.value();
  const std::string_view entry_name = local_of(entry.name);
  xml::PullParser& parser = reader.parser();

  if (entry_name == "Parallel_Response") {
    reply.packed = true;
    while (true) {
      auto token = parser.next();
      if (!token.ok()) return token.error();
      const xml::Token& t = token.value();
      if (t.type == TokenType::kEndElement) break;
      if (t.type != TokenType::kStartElement) continue;
      if (local_of(t.name) != "CallResponse") {
        return Error(ErrorCode::kProtocolError,
                     "unexpected <" + std::string(t.name) +
                         "> in Parallel_Response");
      }
      auto id = read_id(t, "CallResponse");
      if (!id.ok()) return id.error();
      auto outcome = read_relayed(parser, text, parse_limits, scratch);
      if (!outcome.ok()) return outcome.error();
      reply.outcomes.push_back(
          IndexedRelay{id.value(), std::move(outcome).value()});
    }
  } else if (entry_name == "Fault") {
    // Traditional failure: the body entry is the fault itself.
    if (Status skipped = soap::skip_subtree(parser, entry); !skipped.ok()) {
      return skipped.error();
    }
    const size_t begin = reader.entry_begin();
    auto outcome = decode_fault(text.substr(begin, parser.offset() - begin),
                                parse_limits);
    if (!outcome.ok()) return outcome.error();
    reply.outcomes.push_back(IndexedRelay{0, std::move(outcome).value()});
  } else {
    auto outcome = read_relayed(parser, text, parse_limits, scratch);
    if (!outcome.ok()) return outcome.error();
    reply.outcomes.push_back(IndexedRelay{0, std::move(outcome).value()});
  }
  if (Status closed = reader.close("response"); !closed.ok()) {
    return closed.error();
  }
  return reply;
}

namespace {

void write_fault(xml::Writer& writer, const RelayedOutcome& outcome) {
  if (!outcome.fault_xml().empty()) {
    writer.raw(outcome.fault_xml());
  } else {
    soap::Fault::from_error(outcome.error()).write_xml(writer);
  }
}

}  // namespace

void write_spliced_response(xml::Writer& writer,
                            std::span<const RelayedOutcome> outcomes,
                            std::span<const CallView> calls, bool packed) {
  if (!packed) {
    const RelayedOutcome& outcome = outcomes.front();
    if (!outcome.ok()) {
      // Traditional SOAP: a failed call's body is a bare Fault entry.
      write_fault(writer, outcome);
      return;
    }
    writer.start_element("spi:" + std::string(calls.front().operation) +
                         "Response");
    writer.raw(outcome.value());
    writer.end_element();
    return;
  }
  writer.start_element("spi:Parallel_Response");
  std::string id;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    writer.start_element("spi:CallResponse");
    id.clear();
    append_u64(id, calls[i].id);
    writer.attribute("id", id);
    if (outcomes[i].ok()) {
      writer.raw(outcomes[i].value());
    } else {
      write_fault(writer, outcomes[i]);
    }
    writer.end_element();
  }
  writer.end_element();
}

size_t estimate_spliced_response_bytes(
    std::span<const RelayedOutcome> outcomes) {
  size_t bytes = 64;  // Parallel_Response wrapper
  for (const RelayedOutcome& outcome : outcomes) {
    bytes += outcome.ok() ? 96 + outcome.value().size()
                          : 224 + outcome.error().message().size();
  }
  return bytes;
}

}  // namespace spi::core::wire
