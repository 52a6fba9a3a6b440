#include "soap/serializer.hpp"

#include <charconv>

#include "common/string_util.hpp"

namespace spi::soap {

namespace {

const char* xsi_type_of(const Value& value) {
  switch (value.type()) {
    case Value::Type::kBool: return "xsd:boolean";
    case Value::Type::kInt: return "xsd:int";
    case Value::Type::kDouble: return "xsd:double";
    case Value::Type::kString: return "xsd:string";
    case Value::Type::kArray: return "SOAP-ENC:Array";
    case Value::Type::kStruct: return "spi:Struct";
    case Value::Type::kNull: return "xsd:anyType";
  }
  return "xsd:anyType";
}

Result<std::int64_t> parse_int(std::string_view text) {
  std::int64_t out = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   out, 10);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Error(ErrorCode::kParseError,
                 "invalid xsd:int '" + std::string(text) + "'");
  }
  return out;
}

Result<double> parse_double_strict(std::string_view text) {
  std::string owned(text);
  char* end = nullptr;
  double out = std::strtod(owned.c_str(), &end);
  if (end == owned.c_str() || *end != '\0') {
    return Error(ErrorCode::kParseError,
                 "invalid xsd:double '" + owned + "'");
  }
  return out;
}

}  // namespace

void write_value(xml::Writer& writer, std::string_view name,
                 const Value& value) {
  writer.start_element(name);
  switch (value.type()) {
    case Value::Type::kNull:
      writer.attribute("xsi:nil", "true");
      break;
    case Value::Type::kBool:
      writer.attribute("xsi:type", xsi_type_of(value));
      writer.text(value.as_bool() ? "true" : "false");
      break;
    case Value::Type::kInt: {
      writer.attribute("xsi:type", xsi_type_of(value));
      std::string text;
      append_i64(text, value.as_int());
      writer.text(text);
      break;
    }
    case Value::Type::kDouble:
      writer.attribute("xsi:type", xsi_type_of(value));
      writer.text(format_double(value.as_double()));
      break;
    case Value::Type::kString:
      writer.attribute("xsi:type", xsi_type_of(value));
      writer.text(value.as_string());
      break;
    case Value::Type::kArray: {
      const Array& items = value.as_array();
      writer.attribute("xsi:type", xsi_type_of(value));
      std::string array_type = "xsd:anyType[";
      append_u64(array_type, items.size());
      array_type += ']';
      writer.attribute("SOAP-ENC:arrayType", array_type);
      for (const Value& item : items) {
        write_value(writer, "item", item);
      }
      break;
    }
    case Value::Type::kStruct:
      writer.attribute("xsi:type", xsi_type_of(value));
      for (const auto& [field_name, field_value] : value.as_struct()) {
        write_value(writer, field_name, field_value);
      }
      break;
  }
  writer.end_element();
}

std::string value_to_xml(std::string_view name, const Value& value) {
  xml::Writer writer;
  write_value(writer, name, value);
  return writer.take();
}

Result<Value> read_value(const xml::Element& element) {
  if (auto nil = element.attribute("xsi:nil"); nil && *nil == "true") {
    return Value();
  }

  auto declared = element.attribute("xsi:type");
  std::string_view type = declared.value_or("");
  // Strip the namespace prefix: "xsd:int" -> "int".
  if (size_t colon = type.rfind(':'); colon != std::string_view::npos) {
    type = type.substr(colon + 1);
  }

  if (type == "boolean") {
    std::string_view text = element.text_trimmed();
    if (text == "true" || text == "1") return Value(true);
    if (text == "false" || text == "0") return Value(false);
    return Error(ErrorCode::kParseError,
                 "invalid xsd:boolean '" + std::string(text) + "'");
  }
  if (type == "int" || type == "long" || type == "short" || type == "byte" ||
      type == "integer") {
    auto parsed = parse_int(element.text_trimmed());
    if (!parsed.ok()) return parsed.error();
    return Value(parsed.value());
  }
  if (type == "double" || type == "float" || type == "decimal") {
    auto parsed = parse_double_strict(element.text_trimmed());
    if (!parsed.ok()) return parsed.error();
    return Value(parsed.value());
  }
  if (type == "string") {
    return Value(element.text);
  }
  if (type == "Array") {
    Array items;
    items.reserve(element.children.size());
    for (const xml::Element& child : element.children) {
      auto item = read_value(child);
      if (!item.ok()) return item.error();
      items.push_back(std::move(item).value());
    }
    return Value(std::move(items));
  }
  if (type == "Struct") {
    Struct fields;
    fields.reserve(element.children.size());
    for (const xml::Element& child : element.children) {
      auto field = read_value(child);
      if (!field.ok()) return field.error();
      fields.emplace_back(std::string(child.local_name()),
                          std::move(field).value());
    }
    return Value(std::move(fields));
  }

  // No (or unknown) xsi:type: infer from shape, favouring interop.
  if (!element.children.empty()) {
    bool all_items = true;
    for (const xml::Element& child : element.children) {
      if (child.local_name() != "item") {
        all_items = false;
        break;
      }
    }
    if (all_items) {
      Array items;
      for (const xml::Element& child : element.children) {
        auto item = read_value(child);
        if (!item.ok()) return item.error();
        items.push_back(std::move(item).value());
      }
      return Value(std::move(items));
    }
    Struct fields;
    for (const xml::Element& child : element.children) {
      auto field = read_value(child);
      if (!field.ok()) return field.error();
      fields.emplace_back(std::string(child.local_name()),
                          std::move(field).value());
    }
    return Value(std::move(fields));
  }
  return Value(element.text);
}

Result<Value> value_from_xml(std::string_view xml_fragment) {
  auto document = xml::parse_document(std::string(xml_fragment));
  if (!document.ok()) return document.error();
  return read_value(document.value().root);
}

}  // namespace spi::soap
