#include "codec/wire_codec.hpp"

namespace spi::codec {

Error decoded_limit_error(std::string_view codec, size_t limit) {
  std::string message = "decoded limit exceeded: ";
  message += kDecodedBytesLimit;
  message += " (codec ";
  message += codec;
  message += " output beyond ";
  message += std::to_string(limit);
  message += " bytes)";
  return Error(ErrorCode::kCapacityExceeded, std::move(message));
}

Result<xml::Document> WireCodec::decode_document(
    std::string_view wire, size_t max_decoded_bytes,
    const xml::ParseLimits& limits) const {
  Result<std::string> plain = decode(wire, max_decoded_bytes);
  if (!plain.ok()) return plain.error();
  return xml::parse_document(std::move(plain).value(), limits);
}

Result<std::string> WireCodec::decode_text(
    std::string_view wire, size_t max_decoded_bytes,
    const xml::ParseLimits& limits) const {
  if (!decodes_to_document()) return decode(wire, max_decoded_bytes);
  Result<xml::Document> document =
      decode_document(wire, max_decoded_bytes, limits);
  if (!document.ok()) return document.error();
  return document.value().to_string();
}

Result<std::string> IdentityCodec::encode(std::string_view plain) const {
  return std::string(plain);
}

Result<std::string> IdentityCodec::decode(std::string_view wire,
                                          size_t max_decoded_bytes) const {
  if (wire.size() > max_decoded_bytes) {
    return decoded_limit_error(name(), max_decoded_bytes);
  }
  return std::string(wire);
}

const IdentityCodec& identity_codec() {
  static const IdentityCodec instance;
  return instance;
}

}  // namespace spi::codec
