#include "codec/deflate.hpp"

#include <array>

#include <zlib.h>

namespace spi::codec {

namespace {

/// zlib's best ratio: 6.09x on the fig7 M=64 request envelope against
/// 5.64x at Z_DEFAULT_COMPRESSION (EXPERIMENTS.md, wire-codec study).
constexpr int kDeflateLevel = 9;

Error corrupt(std::string detail) {
  return Error(ErrorCode::kCodecError, "deflate: " + std::move(detail));
}

}  // namespace

Result<std::string> DeflateCodec::encode(std::string_view plain) const {
  uLong bound = compressBound(static_cast<uLong>(plain.size()));
  std::string out(bound, '\0');
  uLongf out_size = bound;
  int rc = compress2(reinterpret_cast<Bytef*>(out.data()), &out_size,
                     reinterpret_cast<const Bytef*>(plain.data()),
                     static_cast<uLong>(plain.size()), kDeflateLevel);
  if (rc != Z_OK) {
    return Error(ErrorCode::kInternal,
                 "deflate: zlib compress2 failed rc=" + std::to_string(rc));
  }
  out.resize(out_size);
  return out;
}

Result<std::string> DeflateCodec::decode(
    std::string_view wire, size_t max_decoded_bytes,
    const xml::ParseLimits& /*limits*/) const {
  z_stream stream{};
  if (inflateInit(&stream) != Z_OK) {
    return Error(ErrorCode::kInternal, "deflate: zlib inflateInit failed");
  }
  stream.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(wire.data()));
  stream.avail_in = static_cast<uInt>(wire.size());

  // The budget is checked per inflated chunk, so a decompression bomb
  // stops at max_decoded_bytes instead of expanding in full first.
  std::string out;
  std::array<char, 64 * 1024> chunk;
  int rc = Z_OK;
  do {
    stream.next_out = reinterpret_cast<Bytef*>(chunk.data());
    stream.avail_out = static_cast<uInt>(chunk.size());
    rc = inflate(&stream, Z_NO_FLUSH);
    if (rc != Z_OK && rc != Z_STREAM_END) {
      inflateEnd(&stream);
      return corrupt("zlib inflate rc=" + std::to_string(rc));
    }
    size_t produced = chunk.size() - stream.avail_out;
    if (out.size() + produced > max_decoded_bytes) {
      inflateEnd(&stream);
      return decoded_limit_error("deflate", max_decoded_bytes);
    }
    out.append(chunk.data(), produced);
  } while (rc != Z_STREAM_END);
  bool trailing = stream.avail_in != 0;
  inflateEnd(&stream);
  if (trailing) return corrupt("trailing bytes after zlib stream");
  return out;
}

}  // namespace spi::codec
