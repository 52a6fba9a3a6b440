// ParseLimits enforcement (DESIGN.md §11): for every governed dimension,
// a document just below the bound parses and a document at/over it is
// rejected with kParseError carrying "parse limit exceeded: <limit>".
// Includes the classic hostile shapes: 10k-deep nesting, 10k-attribute
// elements, and billion-laughs-style cumulative entity expansion (this
// parser has no DTDs, so the attack surface is many small expansions, not
// recursive ones — the cumulative budget closes it).
#include <gtest/gtest.h>

#include <string>

#include "soap/envelope.hpp"
#include "xml/parser.hpp"

namespace spi::xml {
namespace {

Status drain(std::string_view input, const ParseLimits& limits) {
  PullParser parser(input, nullptr, limits);
  while (true) {
    auto token = parser.next();
    if (!token.ok()) return token.error();
    if (token.value().type == TokenType::kEndOfDocument) return Status();
  }
}

void expect_limit_rejection(std::string_view input, const ParseLimits& limits,
                            std::string_view limit_name) {
  Status status = drain(input, limits);
  ASSERT_FALSE(status.ok()) << "expected '" << limit_name << "' rejection";
  EXPECT_EQ(status.error().code(), ErrorCode::kParseError);
  EXPECT_NE(status.error().message().find(
                "parse limit exceeded: " + std::string(limit_name)),
            std::string::npos)
      << status.error().message();
}

std::string nested(size_t depth) {
  std::string out;
  out.reserve(depth * 7 + 16);
  for (size_t i = 0; i < depth; ++i) out += "<a>";
  out += "x";
  for (size_t i = 0; i < depth; ++i) out += "</a>";
  return out;
}

TEST(ParseLimitsTest, DepthJustBelowBoundParses) {
  ParseLimits limits;
  limits.max_depth = 32;
  EXPECT_TRUE(drain(nested(32), limits).ok());
}

TEST(ParseLimitsTest, DepthAtBoundRejected) {
  ParseLimits limits;
  limits.max_depth = 32;
  expect_limit_rejection(nested(33), limits, "depth");
}

TEST(ParseLimitsTest, TenThousandDeepNestingRejectedByDefaults) {
  // The regression the limit exists for: default limits must refuse a
  // 10k-deep document long before it exhausts the stack elsewhere.
  expect_limit_rejection(nested(10'000), ParseLimits{}, "depth");
}

TEST(ParseLimitsTest, DomParserHonorsDepthLimit) {
  ParseLimits limits;
  limits.max_depth = 8;
  auto document = parse_document(nested(9), limits);
  ASSERT_FALSE(document.ok());
  EXPECT_EQ(document.error().code(), ErrorCode::kParseError);
}

std::string many_attributes(size_t n) {
  std::string out = "<e";
  for (size_t i = 0; i < n; ++i) {
    out += " a" + std::to_string(i) + "=\"v\"";
  }
  out += "/>";
  return out;
}

TEST(ParseLimitsTest, AttributesJustBelowBoundParse) {
  ParseLimits limits;
  limits.max_attributes = 16;
  EXPECT_TRUE(drain(many_attributes(16), limits).ok());
}

TEST(ParseLimitsTest, AttributesOverBoundRejected) {
  ParseLimits limits;
  limits.max_attributes = 16;
  expect_limit_rejection(many_attributes(17), limits, "attributes");
}

TEST(ParseLimitsTest, TenThousandAttributesRejectedByDefaults) {
  expect_limit_rejection(many_attributes(10'000), ParseLimits{},
                         "attributes");
}

TEST(ParseLimitsTest, NameBytesBound) {
  ParseLimits limits;
  limits.max_name_bytes = 8;
  std::string ok = "<nnnnnnnn/>";     // an 8-byte name
  std::string over = "<nnnnnnnnn/>";  // a 9-byte name
  EXPECT_TRUE(drain(ok, limits).ok());
  expect_limit_rejection(over, limits, "name-bytes");
}

TEST(ParseLimitsTest, AttributeValueBytesBound) {
  ParseLimits limits;
  limits.max_attribute_value_bytes = 16;
  std::string ok = "<e a=\"" + std::string(16, 'v') + "\"/>";
  std::string over = "<e a=\"" + std::string(17, 'v') + "\"/>";
  EXPECT_TRUE(drain(ok, limits).ok());
  expect_limit_rejection(over, limits, "attribute-value-bytes");
}

TEST(ParseLimitsTest, TokenBudget) {
  ParseLimits limits;
  limits.max_tokens = 64;
  std::string flat = "<r>";
  for (size_t i = 0; i < 100; ++i) flat += "<c/>";
  flat += "</r>";
  expect_limit_rejection(flat, limits, "tokens");
  // A small document fits comfortably under the same budget.
  EXPECT_TRUE(drain("<r><c/><c/></r>", limits).ok());
}

TEST(ParseLimitsTest, CumulativeEntityExpansionBudget) {
  // Billion-laughs, cumulative flavor: each text node is small, but the
  // sum of expansion work across the document is what the budget bounds.
  ParseLimits limits;
  limits.max_entity_expansion_bytes = 256;
  std::string hostile = "<r>";
  for (size_t i = 0; i < 64; ++i) {
    hostile += "<t>&amp;&lt;&gt;&quot;&apos;&amp;&lt;&gt;</t>";
  }
  hostile += "</r>";
  expect_limit_rejection(hostile, limits, "entity-expansion");

  // Just below: a handful of the same nodes passes.
  std::string mild = "<r><t>&amp;&lt;&gt;</t></r>";
  EXPECT_TRUE(drain(mild, limits).ok());
}

TEST(ParseLimitsTest, EntityFreeTextCostsNoBudget) {
  // Lazy expansion: text without '&' never touches the budget, so a tiny
  // budget still admits large plain documents.
  ParseLimits limits;
  limits.max_entity_expansion_bytes = 1;
  std::string plain = "<r>" + std::string(64 * 1024, 'x') + "</r>";
  EXPECT_TRUE(drain(plain, limits).ok());
}

TEST(ParseLimitsTest, ZeroLimitRejectsEverything) {
  // 0 is a real bound, not "unlimited" — a config typo fails closed.
  ParseLimits limits;
  limits.max_tokens = 0;
  expect_limit_rejection("<a/>", limits, "tokens");
}

// --- envelope-shape limits (soap::EnvelopeLimits) -------------------------

std::string envelope_with(size_t header_blocks, size_t body_entries) {
  std::string out =
      "<SOAP-ENV:Envelope xmlns:SOAP-ENV="
      "\"http://schemas.xmlsoap.org/soap/envelope/\">";
  if (header_blocks > 0) {
    out += "<SOAP-ENV:Header>";
    for (size_t i = 0; i < header_blocks; ++i) out += "<h/>";
    out += "</SOAP-ENV:Header>";
  }
  out += "<SOAP-ENV:Body>";
  for (size_t i = 0; i < body_entries; ++i) out += "<op/>";
  out += "</SOAP-ENV:Body></SOAP-ENV:Envelope>";
  return out;
}

TEST(EnvelopeLimitsTest, HeaderBlocksBound) {
  soap::EnvelopeLimits limits;
  limits.max_header_blocks = 4;
  EXPECT_TRUE(soap::Envelope::parse(envelope_with(4, 1), {}, limits).ok());
  auto rejected = soap::Envelope::parse(envelope_with(5, 1), {}, limits);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(rejected.error().message().find(
                "envelope limit exceeded: header-blocks"),
            std::string::npos)
      << rejected.error().message();
}

TEST(EnvelopeLimitsTest, BodyEntriesBound) {
  soap::EnvelopeLimits limits;
  limits.max_body_entries = 4;
  EXPECT_TRUE(soap::Envelope::parse(envelope_with(0, 4), {}, limits).ok());
  auto rejected = soap::Envelope::parse(envelope_with(0, 5), {}, limits);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(rejected.error().message().find(
                "envelope limit exceeded: body-entries"),
            std::string::npos)
      << rejected.error().message();
}

TEST(EnvelopeLimitsTest, ParseLimitsPlumbedThroughEnvelopeParse) {
  xml::ParseLimits parse_limits;
  // Opening Body at depth 2 must trip a depth-1 bound (self-closing
  // entries never push the open stack, so a bound of 2 would pass).
  parse_limits.max_depth = 1;
  auto rejected =
      soap::Envelope::parse(envelope_with(0, 1), parse_limits, {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kParseError);
}

}  // namespace
}  // namespace spi::xml
