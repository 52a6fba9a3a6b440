#include "soap/envelope.hpp"

#include "xml/text.hpp"
#include "xml/writer.hpp"

namespace spi::soap {

void open_envelope(xml::Writer& writer,
                   std::span<const std::string> header_blocks_xml) {
  writer.declaration();
  writer.start_element("SOAP-ENV:Envelope");
  writer.attribute("xmlns:SOAP-ENV", kEnvelopeNs);
  writer.attribute("xmlns:SOAP-ENC", kEncodingNs);
  writer.attribute("xmlns:xsd", kXsdNs);
  writer.attribute("xmlns:xsi", kXsiNs);
  writer.attribute("xmlns:spi", kSpiNs);
  if (!header_blocks_xml.empty()) {
    writer.start_element("SOAP-ENV:Header");
    for (const std::string& block : header_blocks_xml) writer.raw(block);
    writer.end_element();
  }
  writer.start_element("SOAP-ENV:Body");
  // Commit the Body start tag: an empty body still frames as
  // <SOAP-ENV:Body></SOAP-ENV:Body>, never the collapsed <SOAP-ENV:Body/>.
  writer.raw({});
}

size_t envelope_capacity(size_t body_bytes,
                         std::span<const std::string> header_blocks_xml) {
  // Declaration, namespaced Envelope tag, Header/Body tags: ~330 bytes.
  size_t bytes = body_bytes + 512;
  for (const std::string& block : header_blocks_xml) bytes += block.size();
  return bytes;
}

std::string build_envelope(
    std::string_view body_inner_xml,
    const std::vector<std::string>& header_blocks_xml) {
  xml::Writer writer(
      false, envelope_capacity(body_inner_xml.size(), header_blocks_xml));
  open_envelope(writer, header_blocks_xml);
  writer.raw(body_inner_xml);
  return writer.take();
}

Error envelope_limit_error(std::string_view limit, size_t count,
                           size_t bound) {
  return Error(ErrorCode::kCapacityExceeded,
               "envelope limit exceeded: " + std::string(limit) + " (" +
                   std::to_string(count) + " > " + std::to_string(bound) +
                   ")");
}

Result<Envelope> Envelope::parse(std::string text,
                                 const xml::ParseLimits& parse_limits,
                                 const EnvelopeLimits& limits) {
  auto document = xml::parse_document(std::move(text), parse_limits);
  if (!document.ok()) return document.wrap_error("SOAP envelope");
  Envelope envelope;
  envelope.document = std::move(document).value();
  const xml::Element& root = envelope.document.root;

  if (root.local_name() != "Envelope") {
    return Error(ErrorCode::kProtocolError,
                 "root element is <" + std::string(root.name) +
                     ">, expected Envelope");
  }

  bool seen_body = false;
  for (const xml::Element& child : root.children) {
    if (child.local_name() == "Header") {
      if (seen_body) {
        return Error(ErrorCode::kProtocolError, "Header after Body");
      }
      if (child.children.size() > limits.max_header_blocks) {
        return envelope_limit_error("header-blocks", child.children.size(),
                                    limits.max_header_blocks);
      }
      envelope.header_blocks.reserve(child.children.size());
      for (const xml::Element& block : child.children) {
        envelope.header_blocks.push_back(&block);
      }
    } else if (child.local_name() == "Body") {
      if (seen_body) {
        return Error(ErrorCode::kProtocolError, "multiple Body elements");
      }
      seen_body = true;
      if (child.children.size() > limits.max_body_entries) {
        return envelope_limit_error("body-entries", child.children.size(),
                                    limits.max_body_entries);
      }
      envelope.body_entries.reserve(child.children.size());
      for (const xml::Element& entry : child.children) {
        envelope.body_entries.push_back(&entry);
      }
    }
    // Other envelope children are ignored (lax processing, like Axis).
  }
  if (!seen_body) {
    return Error(ErrorCode::kProtocolError, "envelope has no Body");
  }
  return envelope;
}

void Fault::write_xml(xml::Writer& writer) const {
  writer.start_element("SOAP-ENV:Fault");
  writer.text_element("faultcode", faultcode);
  writer.text_element("faultstring", faultstring);
  if (!faultactor.empty()) writer.text_element("faultactor", faultactor);
  if (!detail.empty()) {
    writer.start_element("detail");
    writer.text_element("spi:message", detail);
    writer.end_element();
  }
  writer.end_element();
}

std::string Fault::to_xml() const {
  xml::Writer writer;
  write_xml(writer);
  return writer.take();
}

std::optional<Fault> Fault::from_element(const xml::Element& entry) {
  if (entry.local_name() != "Fault") return std::nullopt;
  Fault fault;
  if (const xml::Element* code = entry.first_child("faultcode")) {
    fault.faultcode = std::string(code->text_trimmed());
  }
  if (const xml::Element* text = entry.first_child("faultstring")) {
    fault.faultstring = std::string(text->text);
  }
  if (const xml::Element* actor = entry.first_child("faultactor")) {
    fault.faultactor = std::string(actor->text_trimmed());
  }
  if (const xml::Element* detail_el = entry.first_child("detail")) {
    if (const xml::Element* message = detail_el->first_child("message")) {
      fault.detail = std::string(message->text);
    } else {
      fault.detail = std::string(detail_el->text);
    }
  }
  return fault;
}

Error Fault::to_error() const {
  std::string message = faultcode + ": " + faultstring;
  if (!detail.empty()) {
    message += " (";
    message += detail;
    message += ')';
  }
  return Error(ErrorCode::kFault, std::move(message));
}

Fault Fault::from_error(const Error& error) {
  Fault fault;
  // Client-caused errors map to the Client fault code per SOAP 1.1 §4.4.1.
  switch (error.code()) {
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kParseError:
    case ErrorCode::kNotFound:
    case ErrorCode::kProtocolError:
      fault.faultcode = "SOAP-ENV:Client";
      break;
    default:
      fault.faultcode = "SOAP-ENV:Server";
      break;
  }
  fault.faultstring = std::string(error_code_name(error.code()));
  fault.detail = error.message();
  return fault;
}

}  // namespace spi::soap
