#include "core/wire.hpp"

#include "common/string_util.hpp"
#include "soap/serializer.hpp"
#include "xml/writer.hpp"

namespace spi::core::wire {

namespace {

void write_params(xml::Writer& writer, const soap::Struct& params) {
  for (const auto& [name, value] : params) {
    soap::write_value(writer, name, value);
  }
}

/// `source` is the body the element was parsed from; soap::read_value
/// shares it with the strings that lie in it.
Result<soap::Struct> read_params(
    const xml::Element& element,
    const std::shared_ptr<const std::string>& source) {
  soap::Struct params;
  params.reserve(element.children.size());
  for (const xml::Element& child : element.children) {
    auto value = soap::read_value(child, source);
    if (!value.ok()) {
      return value.wrap_error("parameter '" + std::string(child.name) + "'");
    }
    params.emplace_back(std::string(child.local_name()),
                        std::move(value).value());
  }
  return params;
}

void write_call(xml::Writer& writer, std::uint32_t id,
                const ServiceCall& call) {
  writer.start_element("spi:Call");
  std::string id_text;
  append_u64(id_text, id);
  writer.attribute("id", id_text);
  writer.attribute("service", call.service);
  writer.attribute("operation", call.operation);
  write_params(writer, call.params);
  writer.end_element();
}

Result<IndexedCall> read_call(
    const xml::Element& element,
    const std::shared_ptr<const std::string>& source) {
  IndexedCall indexed;
  auto id = element.attribute("id");
  if (!id) {
    return Error(ErrorCode::kProtocolError, "spi:Call missing id attribute");
  }
  auto parsed_id = parse_u64(*id);
  if (!parsed_id || *parsed_id > 0xffffffffULL) {
    return Error(ErrorCode::kProtocolError,
                 "spi:Call has invalid id '" + std::string(*id) + "'");
  }
  indexed.id = static_cast<std::uint32_t>(*parsed_id);

  auto service = element.attribute("service");
  auto operation = element.attribute("operation");
  if (!service || service->empty() || !operation || operation->empty()) {
    return Error(ErrorCode::kProtocolError,
                 "spi:Call missing service/operation attribute");
  }
  indexed.call.service = std::string(*service);
  indexed.call.operation = std::string(*operation);

  auto params = read_params(element, source);
  if (!params.ok()) return params.error();
  indexed.call.params = std::move(params).value();
  return indexed;
}

/// Writes the payload of one response: <return .../> or a nested Fault.
void write_outcome(xml::Writer& writer, const CallOutcome& outcome) {
  if (outcome.ok()) {
    soap::write_value(writer, "return", outcome.value());
  } else {
    soap::Fault::from_error(outcome.error()).write_xml(writer);
  }
}

/// Reads one response entry's payload, a <return> accessor or a nested
/// <SOAP-ENV:Fault>, into `outcomes` under `id`. Fails only when the entry
/// is malformed. The outcome is built where it is kept: a CallOutcome
/// returned inside a Result would be moved through two nested variants.
Status read_outcome(const xml::Element& container,
                    const std::shared_ptr<const std::string>& source,
                    std::uint32_t id, std::vector<IndexedOutcome>& outcomes) {
  if (const xml::Element* fault_el = container.first_child("Fault")) {
    auto fault = soap::Fault::from_element(*fault_el);
    if (!fault) {
      return Error(ErrorCode::kProtocolError, "malformed nested Fault");
    }
    outcomes.push_back(IndexedOutcome{id, CallOutcome(fault->to_error())});
    return Status();
  }
  if (const xml::Element* return_el = container.first_child("return")) {
    CallOutcome value = soap::read_value(*return_el, source);
    if (!value.ok()) return value.wrap_error("return value");
    outcomes.push_back(IndexedOutcome{id, std::move(value)});
    return Status();
  }
  return Error(ErrorCode::kProtocolError,
               "response entry has neither <return> nor <Fault>");
}

}  // namespace

void write_single_request(xml::Writer& writer, const ServiceCall& call) {
  writer.start_element("spi:" + call.operation);
  writer.attribute("spi:service", call.service);
  write_params(writer, call.params);
  writer.end_element();
}

void write_packed_request(xml::Writer& writer,
                          std::span<const ServiceCall> calls) {
  writer.start_element("spi:Parallel_Method");
  for (size_t i = 0; i < calls.size(); ++i) {
    write_call(writer, static_cast<std::uint32_t>(i), calls[i]);
  }
  writer.end_element();
}

xml::Reservation estimate_request_bytes(std::span<const ServiceCall> calls) {
  xml::Reservation bytes{.copied = 64};  // Parallel_Method wrapper
  for (const ServiceCall& call : calls) {
    bytes.copied += 64 + call.service.size() + call.operation.size();
    for (const auto& [name, value] : call.params) {
      bytes.copied += 2 * name.size() + 48;
      soap::add_payload_bytes(value, bytes);
    }
  }
  return bytes;
}

std::string serialize_single_request(const ServiceCall& call) {
  xml::Writer writer;
  write_single_request(writer, call);
  return writer.take();
}

std::string serialize_packed_request(std::span<const ServiceCall> calls) {
  xml::Writer writer;
  writer.reserve(estimate_request_bytes(calls));
  write_packed_request(writer, calls);
  return writer.take();
}

Result<ParsedRequest> parse_request(const soap::Envelope& envelope) {
  if (envelope.body_entries.empty()) {
    return Error(ErrorCode::kProtocolError, "request body is empty");
  }
  if (envelope.body_entries.size() != 1) {
    return Error(ErrorCode::kProtocolError,
                 "request body must contain exactly one entry");
  }
  const xml::Element& entry = *envelope.body_entries.front();
  const std::shared_ptr<const std::string>& source = envelope.document.source;

  ParsedRequest parsed;
  if (entry.local_name() == "Remote_Execution") {
    auto plan = parse_plan(entry, source);
    if (!plan.ok()) return plan.error();
    parsed.kind = ParsedRequest::Kind::kPlan;
    parsed.packed = true;  // plans answer with Parallel_Response framing
    parsed.plan = std::move(plan).value();
    return parsed;
  }
  if (entry.local_name() == "Parallel_Method") {
    parsed.kind = ParsedRequest::Kind::kPacked;
    parsed.packed = true;
    parsed.calls.reserve(entry.children.size());
    for (const xml::Element& call_el : entry.children) {
      if (call_el.local_name() != "Call") {
        return Error(ErrorCode::kProtocolError,
                     "unexpected <" + std::string(call_el.name) +
                         "> in Parallel_Method");
      }
      auto call = read_call(call_el, source);
      if (!call.ok()) return call.error();
      parsed.calls.push_back(std::move(call).value());
    }
    if (parsed.calls.empty()) {
      return Error(ErrorCode::kProtocolError, "Parallel_Method has no calls");
    }
    return parsed;
  }

  // Traditional form: the element name is the operation.
  IndexedCall indexed;
  indexed.id = 0;
  indexed.call.operation = std::string(entry.local_name());
  if (auto service = entry.attribute("spi:service")) {
    indexed.call.service = std::string(*service);
  }
  if (indexed.call.service.empty()) {
    return Error(ErrorCode::kProtocolError,
                 "request is missing the spi:service attribute");
  }
  auto params = read_params(entry, source);
  if (!params.ok()) return params.error();
  indexed.call.params = std::move(params).value();
  parsed.kind = ParsedRequest::Kind::kSingle;
  parsed.packed = false;
  parsed.calls.push_back(std::move(indexed));
  return parsed;
}

std::string serialize_plan_request(const RemotePlan& plan) {
  return serialize_plan(plan);
}

void write_single_response(xml::Writer& writer, const ServiceCall& call,
                           const CallOutcome& outcome) {
  if (!outcome.ok()) {
    // Traditional SOAP: a failed call's body is a bare Fault entry.
    soap::Fault::from_error(outcome.error()).write_xml(writer);
    return;
  }
  writer.start_element("spi:" + call.operation + "Response");
  write_outcome(writer, outcome);
  writer.end_element();
}

void write_packed_response(xml::Writer& writer,
                           std::span<const IndexedOutcome> outcomes) {
  writer.start_element("spi:Parallel_Response");
  for (const IndexedOutcome& indexed : outcomes) {
    writer.start_element("spi:CallResponse");
    std::string id;
    append_u64(id, indexed.id);
    writer.attribute("id", id);
    write_outcome(writer, indexed.outcome);
    writer.end_element();
  }
  writer.end_element();
}

xml::Reservation estimate_response_bytes(
    std::span<const IndexedOutcome> outcomes) {
  xml::Reservation bytes{.copied = 64};  // Parallel_Response wrapper
  for (const IndexedOutcome& indexed : outcomes) {
    // <spi:CallResponse id="N"><return xsi:type="..."> plus both end tags
    // is 82 bytes + the id's digits: with a 10-digit id, still under 96.
    bytes.copied += 96;
    if (indexed.outcome.ok()) {
      soap::add_payload_bytes(indexed.outcome.value(), bytes);
    } else {
      bytes.copied += indexed.outcome.error().message().size() + 128;
    }
  }
  return bytes;
}

std::string serialize_single_response(const ServiceCall& call,
                                      const CallOutcome& outcome) {
  if (!outcome.ok()) {
    // Traditional SOAP: a failed call's body is a bare Fault entry.
    return soap::Fault::from_error(outcome.error()).to_xml();
  }
  xml::Writer writer;
  write_single_response(writer, call, outcome);
  return writer.take();
}

std::string serialize_packed_response(
    std::span<const IndexedOutcome> outcomes) {
  xml::Writer writer;
  writer.reserve(estimate_response_bytes(outcomes));
  write_packed_response(writer, outcomes);
  return writer.take();
}

Result<ParsedResponse> parse_response(const soap::Envelope& envelope) {
  if (envelope.body_entries.size() != 1) {
    return Error(ErrorCode::kProtocolError,
                 "response body must contain exactly one entry");
  }
  const xml::Element& entry = *envelope.body_entries.front();
  const std::shared_ptr<const std::string>& source = envelope.document.source;

  ParsedResponse parsed;
  if (entry.local_name() == "Parallel_Response") {
    parsed.packed = true;
    parsed.outcomes.reserve(entry.children.size());
    for (const xml::Element& response_el : entry.children) {
      if (response_el.local_name() != "CallResponse") {
        return Error(ErrorCode::kProtocolError,
                     "unexpected <" + std::string(response_el.name) +
                         "> in Parallel_Response");
      }
      auto id = response_el.attribute("id");
      auto parsed_id = id ? parse_u64(*id) : std::nullopt;
      if (!parsed_id || *parsed_id > 0xffffffffULL) {
        return Error(ErrorCode::kProtocolError,
                     "CallResponse has a missing/invalid id");
      }
      Status read = read_outcome(response_el, source,
                                 static_cast<std::uint32_t>(*parsed_id),
                                 parsed.outcomes);
      if (!read.ok()) return read.error();
    }
    return parsed;
  }

  parsed.packed = false;
  if (auto fault = soap::Fault::from_element(entry)) {
    parsed.outcomes.push_back(IndexedOutcome{0, CallOutcome(fault->to_error())});
    return parsed;
  }
  Status read = read_outcome(entry, source, 0, parsed.outcomes);
  if (!read.ok()) return read.error();
  return parsed;
}

}  // namespace spi::core::wire
