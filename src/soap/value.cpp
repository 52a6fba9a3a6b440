#include "soap/value.hpp"

#include "common/string_util.hpp"

namespace spi::soap {

namespace {
void append_debug(std::string& out, const Value& value, size_t max_string) {
  switch (value.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Type::kInt:
      append_i64(out, value.as_int());
      break;
    case Value::Type::kDouble:
      out += format_double(value.as_double());
      break;
    case Value::Type::kString: {
      std::string_view s = value.as_string();
      out += '"';
      if (s.size() <= max_string) {
        out += s;
      } else {
        out += s.substr(0, max_string);
        out += "…(";
        append_u64(out, s.size());
        out += " bytes)";
      }
      out += '"';
      break;
    }
    case Value::Type::kArray: {
      out += '[';
      const Array& items = value.as_array();
      for (size_t i = 0; i < items.size(); ++i) {
        if (i) out += ", ";
        append_debug(out, items[i], max_string);
      }
      out += ']';
      break;
    }
    case Value::Type::kStruct: {
      out += '{';
      const Struct& fields = value.as_struct();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i) out += ", ";
        out += fields[i].first;
        out += ": ";
        append_debug(out, fields[i].second, max_string);
      }
      out += '}';
      break;
    }
  }
}
}  // namespace

Value::Value(std::string value) : data_(Text{}) {
  // The empty string needs no owner; any other string moves behind one.
  if (value.empty()) return;
  auto owner = std::make_shared<const std::string>(std::move(value));
  std::string_view view = *owner;
  data_ = Text{std::move(owner), view};
}

Value Value::shared_string(std::shared_ptr<const std::string> owner,
                           std::string_view text) {
  Value value;
  value.data_ = text.empty() ? Text{} : Text{std::move(owner), text};
  return value;
}

std::string Value::to_debug_string(size_t max_string) const {
  std::string out;
  append_debug(out, *this, max_string);
  return out;
}

std::string_view value_type_name(Value::Type type) {
  switch (type) {
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kInt: return "int";
    case Value::Type::kDouble: return "double";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kStruct: return "struct";
  }
  return "?";
}

std::string_view Value::type_name() const { return value_type_name(type()); }

const Value* Value::field(std::string_view name) const {
  if (!is_struct()) return nullptr;
  for (const auto& [key, value] : as_struct()) {
    if (key == name) return &value;
  }
  return nullptr;
}

size_t Value::payload_bytes() const {
  switch (type()) {
    case Type::kNull: return 0;
    case Type::kBool: return 1;
    case Type::kInt: return 8;
    case Type::kDouble: return 8;
    case Type::kString: return as_string().size();
    case Type::kArray: {
      size_t total = 0;
      for (const Value& item : as_array()) total += item.payload_bytes();
      return total;
    }
    case Type::kStruct: {
      size_t total = 0;
      for (const auto& [key, value] : as_struct()) {
        total += key.size() + value.payload_bytes();
      }
      return total;
    }
  }
  return 0;
}

}  // namespace spi::soap
