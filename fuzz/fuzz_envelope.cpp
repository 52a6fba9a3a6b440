// libFuzzer target for the SOAP layer above the tokenizer: envelope
// parsing (DOM path with default and tiny EnvelopeLimits), the wire-format
// request and response parsers, and the relay's pack and reply views
// (core/wire_view.hpp). This is the exact byte path a hostile
// client reaches through POST /spi, minus sockets.
// Invariants: no crash, no sanitizer report, every rejection is a clean
// Result error — and, differentially, the views accept exactly what the DOM
// path (Dispatcher::parse_request / parse_response) accepts, with the same
// ids, services, operations, shard keys and outcomes. The lifetime rule
// holds too: every decoded value reads back equal to a deep copy taken
// before the Envelope and its input text were destroyed (decoded strings
// keep the text they share alive). A mismatch aborts.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/wire.hpp"
#include "core/wire_view.hpp"
#include "soap/envelope.hpp"

namespace {

using spi::core::wire::ParsedRequest;
using spi::soap::Value;

void require(bool holds) {
  if (!holds) std::abort();
}

/// PackingProxy::route_key's rule on a decoded call.
std::string dom_key(const spi::core::ServiceCall& call,
                    std::string_view shard_param) {
  for (const auto& [name, value] : call.params) {
    if (name == shard_param && value.is_string()) {
      return std::string(value.as_string());
    }
  }
  return call.service + "/" + call.operation;
}

void check_request_view(std::string_view input,
                        const spi::xml::ParseLimits& parse_limits,
                        const spi::soap::EnvelopeLimits& envelope_limits) {
  constexpr std::string_view kShardParam = "key";
  spi::core::Dispatcher dom;
  dom.set_limits(parse_limits, envelope_limits);
  auto parsed = dom.parse_request(std::string(input));
  auto viewed = spi::core::wire::view_request(input, parse_limits,
                                              envelope_limits, kShardParam);
  if (viewed.ok() && viewed.value().kind == ParsedRequest::Kind::kPlan) {
    // Plans are left to the DOM path, which may still reject them.
    require(!parsed.ok() || parsed.value().kind == ParsedRequest::Kind::kPlan);
    return;
  }
  require(parsed.ok() == viewed.ok());
  if (!parsed.ok()) return;
  const ParsedRequest& request = parsed.value();
  const spi::core::wire::PackView& view = viewed.value();
  require(request.kind == view.kind && request.packed == view.packed);
  require(request.trace == view.trace);
  require(request.calls.size() == view.calls.size());
  for (size_t i = 0; i < view.calls.size(); ++i) {
    const spi::core::IndexedCall& call = request.calls[i];
    require(call.id == view.calls[i].id);
    require(call.call.service == view.calls[i].service);
    require(call.call.operation == view.calls[i].operation);
    require(dom_key(call.call, kShardParam) == view.calls[i].route_key);
  }
}

void check_reply_view(std::string_view input) {
  spi::core::Dispatcher dom;
  auto parsed = dom.parse_response(std::string(input));
  auto viewed = spi::core::wire::view_response(input);
  require(parsed.ok() == viewed.ok());
  if (!parsed.ok()) return;
  const auto& decoded = parsed.value().outcomes;
  const auto& relayed = viewed.value().outcomes;
  require(parsed.value().packed == viewed.value().packed);
  require(decoded.size() == relayed.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    require(decoded[i].id == relayed[i].id);
    require(decoded[i].outcome.ok() == relayed[i].outcome.ok());
    if (!decoded[i].outcome.ok()) {
      require(decoded[i].outcome.error() == relayed[i].outcome.error());
    }
  }
}

/// A copy of `value` whose strings share no bytes with it.
Value deep_copy(const Value& value) {
  switch (value.type()) {
    case Value::Type::kString:
      return Value(std::string(value.as_string()));
    case Value::Type::kArray: {
      spi::soap::Array items;
      for (const Value& item : value.as_array()) {
        items.push_back(deep_copy(item));
      }
      return Value(std::move(items));
    }
    case Value::Type::kStruct: {
      spi::soap::Struct fields;
      for (const auto& [name, field] : value.as_struct()) {
        fields.emplace_back(name, deep_copy(field));
      }
      return Value(std::move(fields));
    }
    default:
      return value;
  }
}

void drive(std::string_view input, const spi::xml::ParseLimits& parse_limits,
           const spi::soap::EnvelopeLimits& envelope_limits) {
  std::vector<Value> decoded;
  std::vector<Value> copies;
  if (auto envelope =
          spi::soap::Envelope::parse(std::string(input), parse_limits,
                                     envelope_limits);
      envelope.ok()) {
    if (auto request = spi::core::wire::parse_request(envelope.value());
        request.ok()) {
      for (const spi::core::IndexedCall& call : request.value().calls) {
        for (const auto& [name, value] : call.call.params) {
          decoded.push_back(value);
        }
      }
      for (const spi::core::PlanStep& step : request.value().plan.steps) {
        for (const spi::core::PlanArg& arg : step.args) {
          decoded.push_back(arg.literal);
        }
      }
    }
    if (auto response = spi::core::wire::parse_response(envelope.value());
        response.ok()) {
      for (const spi::core::IndexedOutcome& outcome :
           response.value().outcomes) {
        if (outcome.outcome.ok()) decoded.push_back(outcome.outcome.value());
      }
    }
    for (const Value& value : decoded) copies.push_back(deep_copy(value));
  }
  // The Envelope and the text it adopted are gone; what the values share
  // must still be there.
  for (size_t i = 0; i < decoded.size(); ++i) {
    require(decoded[i] == copies[i]);
  }
  check_request_view(input, parse_limits, envelope_limits);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);
  drive(input, spi::xml::ParseLimits{}, spi::soap::EnvelopeLimits{});
  check_reply_view(input);

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
