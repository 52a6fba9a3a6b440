// libFuzzer target for the SOAP layer above the tokenizer: envelope
// parsing (DOM path with default and tiny EnvelopeLimits), the wire-format
// request parser, and its single-pass streaming twin. This is the exact
// byte path a hostile client reaches through POST /spi, minus sockets.
// Invariants: no crash, no sanitizer report, every rejection is a clean
// Result error.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/wire.hpp"
#include "soap/envelope.hpp"

namespace {

void drive(std::string_view input, const spi::xml::ParseLimits& parse_limits,
           const spi::soap::EnvelopeLimits& envelope_limits) {
  if (auto envelope =
          spi::soap::Envelope::parse(std::string(input), parse_limits,
                                     envelope_limits);
      envelope.ok()) {
    (void)spi::core::wire::parse_request(envelope.value());
    (void)spi::core::wire::parse_response(envelope.value());
  }
  (void)spi::core::wire::parse_request_streaming(input, parse_limits);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  drive(input, spi::xml::ParseLimits{}, spi::soap::EnvelopeLimits{});

  spi::xml::ParseLimits tiny_parse;
  tiny_parse.max_depth = 8;
  tiny_parse.max_tokens = 256;
  tiny_parse.max_attributes = 4;
  tiny_parse.max_name_bytes = 32;
  tiny_parse.max_attribute_value_bytes = 64;
  tiny_parse.max_entity_expansion_bytes = 128;
  spi::soap::EnvelopeLimits tiny_envelope;
  tiny_envelope.max_fanout = 2;
  tiny_envelope.max_body_entries = 2;
  tiny_envelope.max_header_blocks = 2;
  drive(input, tiny_parse, tiny_envelope);
  return 0;
}

#ifdef SPI_FUZZ_STANDALONE
#include "standalone_main.inc"
#endif
