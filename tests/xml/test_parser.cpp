#include <gtest/gtest.h>

#include "xml/parser.hpp"

namespace spi::xml {
namespace {

// Tokens borrow from parser-owned storage, so tests that outlive the
// parse collect deep-copied OwnedTokens.
std::vector<OwnedToken> tokenize(std::string_view input) {
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

Error parse_error(std::string_view input) {
  PullParser parser(input);
  while (true) {
    auto token = parser.next();
    if (!token.ok()) return token.error();
    if (token.value().type == TokenType::kEndOfDocument) {
      ADD_FAILURE() << "expected a parse error for: " << input;
      return Error(ErrorCode::kOk, "");
    }
  }
}

TEST(PullParserTest, SimpleElementTokens) {
  auto tokens = tokenize("<a>text</a>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kStartElement);
  EXPECT_EQ(tokens[0].name, "a");
  EXPECT_EQ(tokens[1].type, TokenType::kText);
  EXPECT_EQ(tokens[1].text, "text");
  EXPECT_EQ(tokens[2].type, TokenType::kEndElement);
}

TEST(PullParserTest, SelfClosingSynthesizesEnd) {
  auto tokens = tokenize("<a><b/></a>");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].type, TokenType::kStartElement);
  EXPECT_TRUE(tokens[1].self_closing);
  EXPECT_EQ(tokens[2].type, TokenType::kEndElement);
  EXPECT_EQ(tokens[2].name, "b");
}

TEST(PullParserTest, AttributesBothQuoteStyles) {
  auto tokens = tokenize(R"(<e a="1" b='2' c = "three"/>)");
  ASSERT_GE(tokens.size(), 1u);
  ASSERT_EQ(tokens[0].attributes.size(), 3u);
  EXPECT_EQ(tokens[0].attributes[0], (OwnedAttribute{"a", "1"}));
  EXPECT_EQ(tokens[0].attributes[1], (OwnedAttribute{"b", "2"}));
  EXPECT_EQ(tokens[0].attributes[2], (OwnedAttribute{"c", "three"}));
}

TEST(PullParserTest, AttributeEntitiesExpanded) {
  auto tokens = tokenize(R"(<e a="x&amp;y&#33;"/>)");
  EXPECT_EQ(tokens[0].attributes[0].value, "x&y!");
}

TEST(PullParserTest, TextEntitiesExpanded) {
  auto tokens = tokenize("<e>&lt;tag&gt; &amp; more</e>");
  EXPECT_EQ(tokens[1].text, "<tag> & more");
}

TEST(PullParserTest, CDataPassedThrough) {
  auto tokens = tokenize("<e><![CDATA[<raw>&stuff]]></e>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, TokenType::kCData);
  EXPECT_EQ(tokens[1].text, "<raw>&stuff");
}

TEST(PullParserTest, CommentsAndPis) {
  auto tokens = tokenize("<!-- header --><e><?pi data?></e>");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, TokenType::kComment);
  EXPECT_EQ(tokens[0].text, " header ");
  EXPECT_EQ(tokens[2].type, TokenType::kProcessingInstruction);
  EXPECT_EQ(tokens[2].name, "pi");
  EXPECT_EQ(tokens[2].text, "data");
}

TEST(PullParserTest, DeclarationRecognized) {
  auto tokens = tokenize("<?xml version=\"1.0\"?><e/>");
  EXPECT_EQ(tokens[0].type, TokenType::kDeclaration);
  EXPECT_EQ(tokens[0].name, "xml");
}

TEST(PullParserTest, WhitespaceAroundRootIgnored) {
  auto tokens = tokenize("\n  <e/>\n  ");
  EXPECT_EQ(tokens.size(), 2u);
}

TEST(PullParserTest, NamespacePrefixedNames) {
  auto tokens = tokenize("<SOAP-ENV:Envelope><spi:Call/></SOAP-ENV:Envelope>");
  EXPECT_EQ(tokens[0].name, "SOAP-ENV:Envelope");
  EXPECT_EQ(tokens[1].name, "spi:Call");
}

// --- error cases -------------------------------------------------------------

TEST(PullParserErrorTest, MismatchedEndTag) {
  Error error = parse_error("<a><b></a></b>");
  EXPECT_EQ(error.code(), ErrorCode::kParseError);
  EXPECT_NE(error.message().find("mismatched"), std::string::npos);
}

TEST(PullParserErrorTest, UnclosedElement) {
  Error error = parse_error("<a><b>");
  EXPECT_NE(error.message().find("unclosed"), std::string::npos);
}

TEST(PullParserErrorTest, TextOutsideRoot) {
  EXPECT_EQ(parse_error("stray<e/>").code(), ErrorCode::kParseError);
  EXPECT_EQ(parse_error("<e/>stray").code(), ErrorCode::kParseError);
}

TEST(PullParserErrorTest, MultipleRoots) {
  EXPECT_NE(parse_error("<a/><b/>").message().find("multiple root"),
            std::string::npos);
}

TEST(PullParserErrorTest, EmptyDocument) {
  EXPECT_NE(parse_error("   ").message().find("no root"), std::string::npos);
}

TEST(PullParserErrorTest, DuplicateAttribute) {
  EXPECT_NE(parse_error(R"(<e a="1" a="2"/>)").message().find("duplicate"),
            std::string::npos);
}

TEST(PullParserErrorTest, UnquotedAttribute) {
  EXPECT_EQ(parse_error("<e a=1/>").code(), ErrorCode::kParseError);
}

TEST(PullParserErrorTest, LtInAttributeValue) {
  EXPECT_EQ(parse_error(R"(<e a="x<y"/>)").code(), ErrorCode::kParseError);
}

TEST(PullParserErrorTest, BadEntity) {
  EXPECT_EQ(parse_error("<e>&nope;</e>").code(), ErrorCode::kParseError);
}

TEST(PullParserErrorTest, DoctypeRejected) {
  EXPECT_NE(parse_error("<!DOCTYPE foo><e/>").message().find("DTD"),
            std::string::npos);
}

TEST(PullParserErrorTest, TruncatedConstructs) {
  EXPECT_EQ(parse_error("<").code(), ErrorCode::kParseError);
  EXPECT_EQ(parse_error("<e").code(), ErrorCode::kParseError);
  EXPECT_EQ(parse_error("<e a=\"unterminated/>").code(),
            ErrorCode::kParseError);
  EXPECT_EQ(parse_error("<!-- unterminated").code(), ErrorCode::kParseError);
  EXPECT_EQ(parse_error("<e><![CDATA[unterminated</e>").code(),
            ErrorCode::kParseError);
  EXPECT_EQ(parse_error("<?pi unterminated").code(), ErrorCode::kParseError);
}

TEST(PullParserErrorTest, InvalidNameStart) {
  EXPECT_EQ(parse_error("<1bad/>").code(), ErrorCode::kParseError);
}

TEST(PullParserErrorTest, DeclarationNotFirst) {
  EXPECT_EQ(parse_error("<e/><?xml version=\"1.0\"?>").code(),
            ErrorCode::kParseError);
}

}  // namespace
}  // namespace spi::xml
