#include "soap/wsdl.hpp"

#include <map>

#include "common/string_util.hpp"
#include "soap/envelope.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace spi::soap {

namespace {

constexpr std::string_view kWsdlNs = "http://schemas.xmlsoap.org/wsdl/";
constexpr std::string_view kWsdlSoapNs =
    "http://schemas.xmlsoap.org/wsdl/soap/";

std::string request_message_name(std::string_view operation) {
  return std::string(operation) + "Request";
}
std::string response_message_name(std::string_view operation) {
  return std::string(operation) + "Response";
}

}  // namespace

std::string generate_wsdl(const ServiceDescription& description) {
  xml::Writer writer(/*pretty=*/true);
  writer.declaration();
  writer.start_element("wsdl:definitions");
  writer.attribute("xmlns:wsdl", kWsdlNs);
  writer.attribute("xmlns:soap", kWsdlSoapNs);
  writer.attribute("xmlns:xsd", kXsdNs);
  writer.attribute("xmlns:tns", std::string(kSpiNs) + "/" + description.name);
  writer.attribute("name", description.name);

  // Messages: one request/response pair per operation.
  for (const OperationDescription& operation : description.operations) {
    writer.start_element("wsdl:message");
    writer.attribute("name", request_message_name(operation.name));
    for (const ParamDescription& input : operation.inputs) {
      writer.start_element("wsdl:part");
      writer.attribute("name", input.name);
      writer.attribute("type", "xsd:" + input.xsd_type);
      writer.end_element();
    }
    writer.end_element();

    writer.start_element("wsdl:message");
    writer.attribute("name", response_message_name(operation.name));
    writer.start_element("wsdl:part");
    writer.attribute("name", "return");
    writer.attribute("type", "xsd:" + operation.output_xsd_type);
    writer.end_element();
    writer.end_element();
  }

  // Port type: abstract operations.
  writer.start_element("wsdl:portType");
  writer.attribute("name", description.name + "PortType");
  for (const OperationDescription& operation : description.operations) {
    writer.start_element("wsdl:operation");
    writer.attribute("name", operation.name);
    if (!operation.documentation.empty()) {
      writer.text_element("wsdl:documentation", operation.documentation);
    }
    writer.start_element("wsdl:input");
    writer.attribute("message", "tns:" + request_message_name(operation.name));
    writer.end_element();
    writer.start_element("wsdl:output");
    writer.attribute("message",
                     "tns:" + response_message_name(operation.name));
    writer.end_element();
    writer.end_element();
  }
  writer.end_element();

  // Binding: SOAP rpc over HTTP.
  writer.start_element("wsdl:binding");
  writer.attribute("name", description.name + "Binding");
  writer.attribute("type", "tns:" + description.name + "PortType");
  writer.start_element("soap:binding");
  writer.attribute("style", "rpc");
  writer.attribute("transport", "http://schemas.xmlsoap.org/soap/http");
  writer.end_element();
  for (const OperationDescription& operation : description.operations) {
    writer.start_element("wsdl:operation");
    writer.attribute("name", operation.name);
    writer.start_element("soap:operation");
    writer.attribute("soapAction", "");
    writer.end_element();
    writer.end_element();
  }
  writer.end_element();

  // Service: concrete endpoint.
  writer.start_element("wsdl:service");
  writer.attribute("name", description.name);
  writer.start_element("wsdl:port");
  writer.attribute("name", description.name + "Port");
  writer.attribute("binding", "tns:" + description.name + "Binding");
  writer.start_element("soap:address");
  writer.attribute("location", description.endpoint_url);
  writer.end_element();
  writer.end_element();
  writer.end_element();

  return writer.take();
}

Result<ServiceDescription> parse_wsdl(std::string_view wsdl_xml) {
  auto document = xml::parse_document(std::string(wsdl_xml));
  if (!document.ok()) return document.wrap_error("WSDL");
  const xml::Element& root = document.value().root;
  if (root.local_name() != "definitions") {
    return Error(ErrorCode::kProtocolError,
                 "not a WSDL document: root is <" + std::string(root.name) + ">");
  }

  ServiceDescription description;
  if (auto name = root.attribute("name")) {
    description.name = std::string(*name);
  }

  // Collect messages: name -> parts.
  struct Message {
    std::vector<ParamDescription> parts;
  };
  std::map<std::string, Message, std::less<>> messages;
  for (const xml::Element* message : root.children_named("message")) {
    auto name = message->attribute("name");
    if (!name) {
      return Error(ErrorCode::kProtocolError, "wsdl:message without name");
    }
    Message entry;
    for (const xml::Element* part : message->children_named("part")) {
      ParamDescription param;
      if (auto part_name = part->attribute("name")) {
        param.name = std::string(*part_name);
      }
      if (auto type = part->attribute("type")) {
        std::string_view t = *type;
        if (size_t colon = t.rfind(':'); colon != std::string_view::npos) {
          t = t.substr(colon + 1);
        }
        param.xsd_type = std::string(t);
      }
      entry.parts.push_back(std::move(param));
    }
    messages.emplace(std::string(*name), std::move(entry));
  }

  // Port type: operations referencing the messages.
  const xml::Element* port_type = root.first_child("portType");
  if (!port_type) {
    return Error(ErrorCode::kProtocolError, "WSDL has no portType");
  }
  auto strip_tns = [](std::string_view qualified) {
    size_t colon = qualified.rfind(':');
    return colon == std::string_view::npos ? qualified
                                           : qualified.substr(colon + 1);
  };
  for (const xml::Element* operation_el :
       port_type->children_named("operation")) {
    OperationDescription operation;
    auto name = operation_el->attribute("name");
    if (!name) {
      return Error(ErrorCode::kProtocolError, "wsdl:operation without name");
    }
    operation.name = std::string(*name);
    if (const xml::Element* doc = operation_el->first_child("documentation")) {
      operation.documentation = std::string(doc->text_trimmed());
    }
    if (const xml::Element* input = operation_el->first_child("input")) {
      if (auto message_ref = input->attribute("message")) {
        auto it = messages.find(strip_tns(*message_ref));
        if (it == messages.end()) {
          return Error(ErrorCode::kProtocolError,
                       "input references unknown message '" +
                           std::string(*message_ref) + "'");
        }
        operation.inputs = it->second.parts;
      }
    }
    if (const xml::Element* output = operation_el->first_child("output")) {
      if (auto message_ref = output->attribute("message")) {
        auto it = messages.find(strip_tns(*message_ref));
        if (it != messages.end() && !it->second.parts.empty()) {
          operation.output_xsd_type = it->second.parts.front().xsd_type;
        }
      }
    }
    description.operations.push_back(std::move(operation));
  }

  // Concrete endpoint.
  if (const xml::Element* service = root.first_child("service")) {
    if (description.name.empty()) {
      if (auto name = service->attribute("name")) {
        description.name = std::string(*name);
      }
    }
    if (const xml::Element* port = service->first_child("port")) {
      if (const xml::Element* address = port->first_child("address")) {
        if (auto location = address->attribute("location")) {
          description.endpoint_url = std::string(*location);
        }
      }
    }
  }
  if (description.name.empty()) {
    return Error(ErrorCode::kProtocolError, "WSDL names no service");
  }
  return description;
}

Result<ServiceDescription> describe_service(
    const std::string& service_name,
    const std::vector<std::string>& operation_names,
    const std::string& endpoint_url) {
  if (operation_names.empty()) {
    return Error(ErrorCode::kNotFound,
                 "service '" + service_name + "' has no operations");
  }
  ServiceDescription description;
  description.name = service_name;
  description.endpoint_url = endpoint_url;
  for (const std::string& operation : operation_names) {
    OperationDescription entry;
    entry.name = operation;
    description.operations.push_back(std::move(entry));
  }
  return description;
}

}  // namespace spi::soap
