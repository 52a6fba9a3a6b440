// Edge cases for the zero-copy entity/CDATA machinery: expansions that land
// at the very start/end of a run, runs long enough to force a fresh scratch
// arena chunk, and `]]>` smuggled across adjacent CDATA sections (the
// multi-run arena-merge path in parse_document).
#include <gtest/gtest.h>

#include <string>

#include "xml/parser.hpp"

namespace spi::xml {
namespace {

std::vector<OwnedToken> tokenize_ok(std::string_view input) {
  PullParser parser(input);
  std::vector<OwnedToken> tokens;
  while (true) {
    auto token = parser.next();
    EXPECT_TRUE(token.ok()) << token.error().to_string();
    if (!token.ok() || token.value().type == TokenType::kEndOfDocument) break;
    tokens.emplace_back(token.value());
  }
  return tokens;
}

std::string text_of(const std::vector<OwnedToken>& tokens) {
  std::string text;
  for (const OwnedToken& token : tokens) {
    if (token.type == TokenType::kText || token.type == TokenType::kCData) {
      text += token.text;
    }
  }
  return text;
}

TEST(EntityEdgeTest, NumericEntityAtRunStartAndEnd) {
  // Expansion at offset 0 and at the last byte of the text run.
  auto tokens = tokenize_ok("<e>&#65;middle&#x42;</e>");
  EXPECT_EQ(text_of(tokens), "AmiddleB");

  auto doc = parse_document("<e>&#65;middle&#x42;</e>");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc.value().root.text, "AmiddleB");
}

TEST(EntityEdgeTest, NumericEntityIsEntireRun) {
  // A run that is nothing but one multi-byte expansion (4-byte UTF-8).
  auto tokens = tokenize_ok("<e>&#x1F600;</e>");
  EXPECT_EQ(text_of(tokens), "\xF0\x9F\x98\x80");

  auto doc = parse_document("<e>&#x1F600;</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.text, "\xF0\x9F\x98\x80");
}

TEST(EntityEdgeTest, NumericEntityAtAttributeValueBoundaries) {
  auto tokens = tokenize_ok(R"(<e head="&#72;ead" tail="tai&#108;"/>)");
  ASSERT_EQ(tokens[0].attributes.size(), 2u);
  EXPECT_EQ(tokens[0].attributes[0].value, "Head");
  EXPECT_EQ(tokens[0].attributes[1].value, "tail");

  auto doc = parse_document(R"(<e head="&#72;ead" tail="tai&#108;"/>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.attribute("head"), "Head");
  EXPECT_EQ(doc.value().root.attribute("tail"), "tail");
}

TEST(EntityEdgeTest, ExpansionSpansScratchArenaChunkBoundary) {
  // A text run longer than the arena's first chunk (4 KiB default) forces
  // the scratch arena to grow mid-document; the expanded view must stay
  // intact because chunks are separately heap-allocated.
  std::string filler(5000, 'x');
  std::string input = "<e>" + filler + "&#33;</e>";
  auto tokens = tokenize_ok(input);
  EXPECT_EQ(text_of(tokens), filler + "!");

  auto doc = parse_document(input);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.text, filler + "!");
}

TEST(EntityEdgeTest, CDataCloserSplitAcrossAdjacentSections) {
  // The classic way to embed a literal "]]>" is to split it across two
  // CDATA sections. The pull parser reports two runs; parse_document must
  // merge them (arena concatenation path) into one logical text.
  constexpr std::string_view input =
      "<e><![CDATA[a]]]]><![CDATA[>b]]></e>";
  auto tokens = tokenize_ok(input);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].type, TokenType::kCData);
  EXPECT_EQ(tokens[1].text, "a]]");
  EXPECT_EQ(tokens[2].type, TokenType::kCData);
  EXPECT_EQ(tokens[2].text, ">b");
  EXPECT_EQ(text_of(tokens), "a]]>b");

  auto doc = parse_document(std::string(input));
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc.value().root.text, "a]]>b");
}

TEST(EntityEdgeTest, AllFivePredefinedEntitiesInAttributeValue) {
  constexpr std::string_view input =
      R"(<e all="&amp;&lt;&gt;&quot;&apos;"/>)";
  auto tokens = tokenize_ok(input);
  ASSERT_EQ(tokens[0].attributes.size(), 1u);
  EXPECT_EQ(tokens[0].attributes[0].value, "&<>\"'");

  auto doc = parse_document(std::string(input));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.attribute("all"), "&<>\"'");

  // Full round trip: serializing re-escapes, reparsing re-expands.
  auto reparsed = parse_document(doc.value().root.to_string());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed.value().root.attribute("all"), "&<>\"'");
}

TEST(EntityEdgeTest, PredefinedEntitiesInTextRoundTrip) {
  auto doc = parse_document("<e>&amp;&lt;&gt;&quot;&apos;</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.text, "&<>\"'");
  auto reparsed = parse_document(doc.value().root.to_string());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().root.text, "&<>\"'");
}

}  // namespace
}  // namespace spi::xml
