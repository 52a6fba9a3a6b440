#include "soap/serializer.hpp"

#include <charconv>
#include <functional>

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

/// A string accessor's text: shared with `source` when it lies there (the
/// unescaped payload case), copied when it does not: the parser wrote it
/// into the Document's arena (expanded or joined text), or the Document
/// has no source (bxml built it).
Value read_text(std::string_view text,
                const std::shared_ptr<const std::string>& source) {
  const std::less_equal<const char*> at_or_before;
  if (source && at_or_before(source->data(), text.data()) &&
      at_or_before(text.data() + text.size(),
                   source->data() + source->size())) {
    return Value::shared_string(source, text);
  }
  return Value(text);
}

}  // namespace

DeclaredType declared_type(std::string_view xsi_type) {
  // Strip the namespace prefix: "xsd:int" -> "int".
  if (size_t colon = xsi_type.rfind(':'); colon != std::string_view::npos) {
    xsi_type = xsi_type.substr(colon + 1);
  }
  if (xsi_type == "boolean") return DeclaredType::kBoolean;
  if (xsi_type == "int" || xsi_type == "long" || xsi_type == "short" ||
      xsi_type == "byte" || xsi_type == "integer") {
    return DeclaredType::kInt;
  }
  if (xsi_type == "double" || xsi_type == "float" || xsi_type == "decimal") {
    return DeclaredType::kDouble;
  }
  if (xsi_type == "string") return DeclaredType::kString;
  if (xsi_type == "Array") return DeclaredType::kArray;
  if (xsi_type == "Struct") return DeclaredType::kStruct;
  return DeclaredType::kInferred;
}

Result<bool> parse_xsd_boolean(std::string_view text) {
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  return Error(ErrorCode::kParseError,
               "invalid xsd:boolean '" + std::string(text) + "'");
}

Result<std::int64_t> parse_xsd_int(std::string_view text) {
  std::int64_t out = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   out, 10);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Error(ErrorCode::kParseError,
                 "invalid xsd:int '" + std::string(text) + "'");
  }
  return out;
}

Result<double> parse_xsd_double(std::string_view text) {
  std::string owned(text);
  char* end = nullptr;
  double out = std::strtod(owned.c_str(), &end);
  if (end == owned.c_str() || *end != '\0') {
    return Error(ErrorCode::kParseError,
                 "invalid xsd:double '" + owned + "'");
  }
  return out;
}

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
      writer.shared_text(value.as_string(), value.string_owner());
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

void add_payload_bytes(const Value& value, xml::Reservation& bytes) {
  switch (value.type()) {
    case Value::Type::kString: {
      const size_t size = value.as_string().size();
      (size >= xml::kSpliceFloorBytes ? bytes.spliceable : bytes.copied) +=
          size;
      return;
    }
    case Value::Type::kArray:
      for (const Value& item : value.as_array()) add_payload_bytes(item, bytes);
      return;
    case Value::Type::kStruct:
      for (const auto& [key, field] : value.as_struct()) {
        bytes.copied += key.size();
        add_payload_bytes(field, bytes);
      }
      return;
    default:
      bytes.copied += value.payload_bytes();
      return;
  }
}

std::string value_to_xml(std::string_view name, const Value& value) {
  xml::Writer writer;
  write_value(writer, name, value);
  return writer.take();
}

Result<Value> read_value(const xml::Element& element,
                         const std::shared_ptr<const std::string>& source) {
  if (auto nil = element.attribute("xsi:nil"); nil && *nil == "true") {
    return Value();
  }

  auto read_children = [&element, &source]() -> Result<Struct> {
    Struct fields;
    fields.reserve(element.children.size());
    for (const xml::Element& child : element.children) {
      auto field = read_value(child, source);
      if (!field.ok()) return field.error();
      fields.emplace_back(std::string(child.local_name()),
                          std::move(field).value());
    }
    return fields;
  };
  auto as_array = [](Struct fields) {
    Array items;
    items.reserve(fields.size());
    for (auto& [name, value] : fields) items.push_back(std::move(value));
    return Value(std::move(items));
  };

  switch (declared_type(element.attribute("xsi:type").value_or(""))) {
    case DeclaredType::kBoolean: {
      auto parsed = parse_xsd_boolean(element.text_trimmed());
      if (!parsed.ok()) return parsed.error();
      return Value(parsed.value());
    }
    case DeclaredType::kInt: {
      auto parsed = parse_xsd_int(element.text_trimmed());
      if (!parsed.ok()) return parsed.error();
      return Value(parsed.value());
    }
    case DeclaredType::kDouble: {
      auto parsed = parse_xsd_double(element.text_trimmed());
      if (!parsed.ok()) return parsed.error();
      return Value(parsed.value());
    }
    case DeclaredType::kString:
      return read_text(element.text, source);
    case DeclaredType::kArray: {
      auto fields = read_children();
      if (!fields.ok()) return fields.error();
      return as_array(std::move(fields).value());
    }
    case DeclaredType::kStruct: {
      auto fields = read_children();
      if (!fields.ok()) return fields.error();
      return Value(std::move(fields).value());
    }
    case DeclaredType::kInferred:
      break;
  }

  // No (or unknown) xsi:type: infer from shape, favouring interop.
  if (element.children.empty()) return read_text(element.text, source);
  bool all_items = true;
  for (const xml::Element& child : element.children) {
    if (child.local_name() != "item") {
      all_items = false;
      break;
    }
  }
  auto fields = read_children();
  if (!fields.ok()) return fields.error();
  if (all_items) return as_array(std::move(fields).value());
  return Value(std::move(fields).value());
}

Result<Value> value_from_xml(std::string_view xml_fragment) {
  auto document = xml::parse_document(std::string(xml_fragment));
  if (!document.ok()) return document.error();
  return read_value(document.value().root, document.value().source);
}

}  // namespace spi::soap
