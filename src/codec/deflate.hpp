// "deflate" content coding (RFC 2616 §3.5 = RFC 1950 zlib wrapper around
// RFC 1951 DEFLATE data), backed by the system zlib: the interop reference
// that standard SOAP stacks speak.
//
// Decode enforces the caller's output budget *while inflating*: a
// decompression bomb stops at max_decoded_bytes, not at whatever it
// expands to.
#pragma once

#include "codec/wire_codec.hpp"

namespace spi::codec {

class DeflateCodec final : public WireCodec {
 public:
  std::string_view name() const override { return "deflate"; }
  Result<std::string> encode(std::string_view plain) const override;
  Result<std::string> decode(std::string_view wire,
                             size_t max_decoded_bytes) const override;
};

}  // namespace spi::codec
