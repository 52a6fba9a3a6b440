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

Result<std::string> IdentityCodec::encode(std::string_view plain) const {
  return std::string(plain);
}

Result<std::string> IdentityCodec::decode(
    std::string_view wire, size_t max_decoded_bytes,
    const xml::ParseLimits& /*limits*/) const {
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
