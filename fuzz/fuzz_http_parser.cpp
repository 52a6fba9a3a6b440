// libFuzzer target for the HTTP/1.1 framing parser. The input is fed in
// two patterns — whole, then byte-at-a-time — in both request and
// response mode, because incremental feeding exercises the cross-chunk
// state machine (header splits, chunked bodies straddling feeds) that a
// single feed never reaches. Invariants: no crash, no sanitizer report,
// failed() latches instead of throwing, and poll never spins. A third
// pattern writes Content-Length body bytes into body_space() as a
// receive into the body does, and must parse exactly what feeding the
// same slices parses.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "http/parser.hpp"

namespace {

/// What a parse produced: every message's body, in order, and whether
/// the parser failed.
struct Parsed {
  std::vector<std::string> bodies;
  bool failed = false;
  bool operator==(const Parsed&) const = default;
};

Parsed drive(std::string_view input, spi::http::MessageParser::Mode mode,
             size_t chunk, bool into_body = false) {
  // Small limits so limit enforcement is reachable with fuzz-sized inputs.
  spi::http::ParserLimits limits;
  limits.max_header_bytes = 512;
  limits.max_body_bytes = 4096;
  spi::http::MessageParser parser(mode, limits);
  Parsed parsed;
  size_t offset = 0;
  while (offset < input.size() && !parser.failed()) {
    size_t n = std::min(chunk, input.size() - offset);
    std::span<char> space = into_body ? parser.body_space() : std::span<char>();
    if (!space.empty()) {
      n = std::min(n, space.size());
      std::memcpy(space.data(), input.data() + offset, n);
      parser.commit_body(n);
    } else {
      parser.feed(input.substr(offset, n));
    }
    offset += n;
    // Drain every complete message (keep-alive pipelining path).
    if (mode == spi::http::MessageParser::Mode::kRequest) {
      while (auto request = parser.poll_request()) {
        parsed.bodies.push_back(std::move(request->body));
      }
    } else {
      while (auto response = parser.poll_response()) {
        parsed.bodies.push_back(std::move(response->body));
      }
    }
  }
  parsed.failed = parser.failed();
  return parsed;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  for (auto mode : {spi::http::MessageParser::Mode::kRequest,
                    spi::http::MessageParser::Mode::kResponse}) {
    drive(input, mode, input.size() == 0 ? 1 : input.size());  // one feed
    drive(input, mode, 1);                                     // dribble
    // Straddle boundaries unevenly, fed and received into the body.
    if (drive(input, mode, 7) != drive(input, mode, 7, true)) {
      __builtin_trap();
    }
  }
  return 0;
}

#ifdef SPI_FUZZ_STANDALONE
#include "standalone_main.inc"
#endif
