// Typed parameter extraction for operation handlers. Converts missing /
// mistyped parameters into kInvalidArgument errors that surface as SOAP
// Client faults with a useful message.
#pragma once

#include <string_view>

#include "core/call.hpp"

namespace spi::core {

inline const soap::Value* find_param(const soap::Struct& params,
                                     std::string_view name) {
  for (const auto& [key, value] : params) {
    if (key == name) return &value;
  }
  return nullptr;
}

inline Result<std::string> require_string(const soap::Struct& params,
                                          std::string_view name) {
  const soap::Value* value = find_param(params, name);
  if (!value) {
    return Error(ErrorCode::kInvalidArgument,
                 "missing parameter '" + std::string(name) + "'");
  }
  if (!value->is_string()) {
    return Error(ErrorCode::kInvalidArgument,
                 "parameter '" + std::string(name) + "' must be a string, got " +
                     std::string(value->type_name()));
  }
  return std::string(value->as_string());
}

inline Result<std::int64_t> require_int(const soap::Struct& params,
                                        std::string_view name) {
  const soap::Value* value = find_param(params, name);
  if (!value) {
    return Error(ErrorCode::kInvalidArgument,
                 "missing parameter '" + std::string(name) + "'");
  }
  if (!value->is_int()) {
    return Error(ErrorCode::kInvalidArgument,
                 "parameter '" + std::string(name) + "' must be an int, got " +
                     std::string(value->type_name()));
  }
  return value->as_int();
}

inline Result<double> require_double(const soap::Struct& params,
                                     std::string_view name) {
  const soap::Value* value = find_param(params, name);
  if (!value) {
    return Error(ErrorCode::kInvalidArgument,
                 "missing parameter '" + std::string(name) + "'");
  }
  if (value->is_int()) return static_cast<double>(value->as_int());
  if (!value->is_double()) {
    return Error(ErrorCode::kInvalidArgument,
                 "parameter '" + std::string(name) + "' must be a number, got " +
                     std::string(value->type_name()));
  }
  return value->as_double();
}

inline Result<bool> require_bool(const soap::Struct& params,
                                 std::string_view name) {
  const soap::Value* value = find_param(params, name);
  if (!value) {
    return Error(ErrorCode::kInvalidArgument,
                 "missing parameter '" + std::string(name) + "'");
  }
  if (!value->is_bool()) {
    return Error(ErrorCode::kInvalidArgument,
                 "parameter '" + std::string(name) + "' must be a bool, got " +
                     std::string(value->type_name()));
  }
  return value->as_bool();
}

}  // namespace spi::core
