// "bxml" content coding — compact binary-XML framing for the SPI fast path
// (DESIGN.md §14).
//
// Both ends of an SPI exchange are this library, so the wire does not need
// angle brackets: an envelope becomes an opcode stream over a tag/attribute
// dictionary. Names that the SPI/SOAP vocabulary makes predictable
// (Envelope, Body, spi:Call, xsi:type, ...) are static dictionary hits and
// cost one or two bytes; anything else is defined inline once and referenced
// by index afterwards. Text spans travel raw (length-prefixed, no entity
// escaping), which is where the big win over text XML lives for 100 KB
// payloads.
//
// Decoding rebuilds the arena-backed xml::Document while enforcing the
// same ParseLimits the tokenizer applies plus the codec-layer decoded-bytes
// budget, so a hostile bxml stream cannot claim resources a hostile text
// document could not. decode() re-serializes that document to text, the
// one form every hop parses (DESIGN.md §14).
//
// Framing (all integers are LEB128 varints):
//   magic "BX1\0"
//   ops:
//     0x01 OPEN  <name>                 push element
//     0x02 ATTR  <name> <len> <bytes>   attribute on the open element
//     0x03 TEXT  <len> <bytes>          character data in the open element
//     0x04 CLOSE                        pop element
//     0x05 END                          end of document
//   <name>: 0 => inline definition (<len> <bytes>), appended to the dynamic
//           dictionary; k>0 => dictionary reference (static table first,
//           then dynamic entries in definition order).
#pragma once

#include "codec/wire_codec.hpp"

namespace spi::codec {

class BxmlCodec final : public WireCodec {
 public:
  std::string_view name() const override { return "bxml"; }

  /// Tokenizes the text envelope (no DOM) and emits the opcode stream.
  Result<std::string> encode(std::string_view plain) const override;

  /// decode_document, re-serialized to text.
  Result<std::string> decode(std::string_view wire, size_t max_decoded_bytes,
                             const xml::ParseLimits& limits) const override;

  /// The opcode stream straight into a Document, no text in between.
  Result<xml::Document> decode_document(std::string_view wire,
                                        size_t max_decoded_bytes,
                                        const xml::ParseLimits& limits) const;
};

/// The static name dictionary (exposed for tests and tooling).
std::span<const std::string_view> bxml_static_dictionary();

}  // namespace spi::codec
