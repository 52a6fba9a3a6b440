// WireCodec — the pluggable wire-encoding boundary between the SOAP text
// layer and HTTP bodies (DESIGN.md §14).
//
// The Assembler keeps producing text XML envelopes; a codec transforms that
// text to and from the bytes that actually cross the wire. Negotiation is
// standard HTTP content coding: the client advertises codecs in
// Accept-Encoding and labels its request body with Content-Encoding; the
// server decodes, picks the response codec from the advertisement, and
// echoes the choice in its own Content-Encoding. Unknown codings fall back
// to identity so text-XML interop with foreign SOAP stacks is preserved.
//
// Decoding is where hostile input lives: every decode takes an explicit
// output budget (`max_decoded_bytes`) so a decompression bomb is shed by
// the codec layer — counted like any other parse-limit rejection — instead
// of materializing before the parser's own limits can act.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "xml/parser.hpp"

namespace spi::codec {

/// Fixed message prefix for decode-budget rejections. Matches the
/// "limit exceeded: " marker SpiServer uses to count limit rejections, so
/// codec bombs land in spi_limit_rejections_total{limit="decoded-bytes"}.
inline constexpr std::string_view kDecodedBytesLimit = "decoded-bytes";

/// Builds the kCapacityExceeded error for an over-budget decode.
Error decoded_limit_error(std::string_view codec, size_t limit);

/// A bidirectional content coding for SOAP envelope bodies.
///
/// Implementations are stateless and thread-safe: one instance serves every
/// connection concurrently. Errors use ErrorCode::kCodecError for corrupt
/// wire bytes (retryable — nothing executed) and kCapacityExceeded for
/// decode-budget violations.
class WireCodec {
 public:
  virtual ~WireCodec() = default;

  /// Canonical lower-case coding token used in HTTP headers ("deflate").
  virtual std::string_view name() const = 0;

  /// Encodes a text XML envelope into wire bytes.
  virtual Result<std::string> encode(std::string_view plain) const = 0;

  /// Decodes wire bytes back into text XML, the one form every hop
  /// parses. Output beyond `max_decoded_bytes` fails with
  /// decoded_limit_error before the full plaintext is materialized. A
  /// codec that carries structure (bxml) applies `limits` while it
  /// rebuilds the document, so a binary framing cannot smuggle one past
  /// the parser's resource governance; text codecs leave them to the parse.
  virtual Result<std::string> decode(std::string_view wire,
                                     size_t max_decoded_bytes,
                                     const xml::ParseLimits& limits) const = 0;
};

/// The identity codec: bytes pass through untouched (modulo the decode
/// budget, which still applies — an oversized identity body is rejected the
/// same way an oversized decompression would be).
class IdentityCodec final : public WireCodec {
 public:
  std::string_view name() const override { return "identity"; }
  Result<std::string> encode(std::string_view plain) const override;
  Result<std::string> decode(std::string_view wire, size_t max_decoded_bytes,
                             const xml::ParseLimits& limits) const override;
};

/// Process-wide identity instance (registries share it).
const IdentityCodec& identity_codec();

}  // namespace spi::codec
