// libFuzzer target for the XML hot path: PullParser token walk and the
// arena-backed DOM (parse_document), each under the default ParseLimits and again under deliberately tiny limits so the
// enforcement branches themselves get fuzzed. Invariants: no crash, no
// sanitizer report, and every failure is a clean Result error.
//
// Build: -DSPI_FUZZ=ON with clang (-fsanitize=fuzzer). Under gcc the
// harness compiles with SPI_FUZZ_STANDALONE instead: main() replays the
// files given on argv, which keeps the corpus usable as a regression
// suite everywhere (see fuzz/CMakeLists.txt).
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "xml/parser.hpp"

namespace {

void walk(const spi::xml::Element& element, size_t& touched) {
  touched += element.name.size() + element.text.size();
  for (const spi::xml::Attribute& attribute : element.attributes) {
    touched += attribute.name.size() + attribute.value.size();
  }
  for (const spi::xml::Element& child : element.children) {
    walk(child, touched);
  }
}

void drive(std::string_view input, const spi::xml::ParseLimits& limits) {
  // Pull walk: consume every token until end or error.
  {
    spi::MonotonicArena arena;
    spi::xml::PullParser parser(input, &arena, limits);
    while (true) {
      auto token = parser.next();
      if (!token.ok() ||
          token.value().type == spi::xml::TokenType::kEndOfDocument) {
        break;
      }
    }
  }
  // DOM: build and touch every view so ASan sees any dangle into the
  // arena or the adopted source.
  if (auto document = spi::xml::parse_document(std::string(input), limits);
      document.ok()) {
    size_t touched = 0;
    walk(document.value().root, touched);
    (void)touched;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  drive(input, spi::xml::ParseLimits{});

  spi::xml::ParseLimits tiny;
  tiny.max_depth = 4;
  tiny.max_tokens = 64;
  tiny.max_attributes = 2;
  tiny.max_name_bytes = 8;
  tiny.max_attribute_value_bytes = 16;
  tiny.max_entity_expansion_bytes = 32;
  drive(input, tiny);
  return 0;
}

#ifdef SPI_FUZZ_STANDALONE
#include "standalone_main.inc"
#endif
