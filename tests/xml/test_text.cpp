#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "common/random.hpp"
#include "xml/parser.hpp"
#include "xml/text.hpp"
#include "xml/writer.hpp"

namespace spi::xml {
namespace {

TEST(EscapeTextTest, EscapesMarkupCharacters) {
  EXPECT_EQ(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
  EXPECT_EQ(escape_text("no markup"), "no markup");
  EXPECT_EQ(escape_text(""), "");
  // Quotes are legal in character data.
  EXPECT_EQ(escape_text("\"quoted\" 'single'"), "\"quoted\" 'single'");
}

TEST(EscapeAttributeTest, EscapesQuotesAndWhitespace) {
  EXPECT_EQ(escape_attribute("a\"b"), "a&quot;b");
  EXPECT_EQ(escape_attribute("a<b>&"), "a&lt;b&gt;&amp;");
  EXPECT_EQ(escape_attribute("tab\there"), "tab&#9;here");
  EXPECT_EQ(escape_attribute("line\nbreak"), "line&#10;break");
}

// A literal CR would reach a conforming XML 1.0 peer as LF (§2.11 line-end
// normalization), silently altering echoed data; as &#13; it survives.
TEST(EscapeTextTest, EscapesCarriageReturn) {
  EXPECT_EQ(escape_text("a\rb"), "a&#13;b");
  EXPECT_EQ(escape_text("\r\n"), "&#13;\n");  // LF in content is kept
  EXPECT_EQ(escape_attribute("a\r\n\tb"), "a&#13;&#10;&#9;b");
}

TEST(EscapeTextTest, CarriageReturnSurvivesDocumentRoundTrip) {
  const std::string value = "line one\r\nline two\r";
  Writer writer;
  writer.start_element("v").attribute("a", value).text(value).end_element();
  auto document = parse_document(writer.take());
  ASSERT_TRUE(document.ok()) << document.error().to_string();
  EXPECT_EQ(document.value().root.text, value);
  ASSERT_TRUE(document.value().root.attribute("a").has_value());
  EXPECT_EQ(*document.value().root.attribute("a"), value);
}

/// Byte-at-a-time reference for both escapers: the specification the
/// production scan must match byte for byte.
std::string reference_escape(std::string_view text, bool attribute) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '\r': out += "&#13;"; break;
      case '"': out += attribute ? "&quot;" : "\""; break;
      case '\n': out += attribute ? "&#10;" : "\n"; break;
      case '\t': out += attribute ? "&#9;" : "\t"; break;
      default: out += c; break;
    }
  }
  return out;
}

bool is_special(char c) {
  return c == '&' || c == '<' || c == '>' || c == '\r' || c == '"' ||
         c == '\n' || c == '\t';
}

TEST(EscapeTextTest, MatchesByteAtATimeReferenceOnRandomStrings) {
  // Dense in the special bytes, plus NUL and bytes >= 0x80. Every other
  // block of strings is sparse instead (about one special in 32 bytes), so
  // clean runs longer than the escaper's byte loop lets go by hand the
  // scan to the memchr cursors and back.
  static constexpr char kAlphabet[] = {
      '&', '<', '>', '\r', '&', '<', '>', '\r', '"', '\n', '\t',
      '\0', 'a', 'Z', ' ', ';', '\x80', '\xC3', '\xA9', '\xFF'};
  static constexpr char kClean[] = {'\0', 'a', 'Z', ' ', ';',
                                    '\x80', '\xC3', '\xA9', '\xFF'};
  SplitMix64 rng(0x5eed);
  size_t first_special = 0;
  size_t last_special = 0;
  size_t adjacent_special = 0;
  size_t long_clean_run = 0;
  for (int i = 0; i < 100'000; ++i) {
    const bool sparse = (i / 4) % 2 == 1;
    std::string text(rng.next_below(301), 'x');
    for (char& c : text) {
      c = sparse && rng.next_below(32) != 0
              ? kClean[rng.next_below(std::size(kClean))]
              : kAlphabet[rng.next_below(std::size(kAlphabet))];
    }
    if (!text.empty()) {
      // Pin specials at the boundaries a scan is most likely to get
      // wrong: the first byte, the last byte, and two neighbours.
      switch (i % 4) {
        case 1: text.front() = '&'; break;
        case 2: text.back() = '\r'; break;
        case 3: {
          size_t at = rng.next_below(text.size());
          text[at] = '<';
          if (at + 1 < text.size()) text[at + 1] = '>';
          break;
        }
        default: break;
      }
      first_special += is_special(text.front());
      last_special += is_special(text.back());
      for (size_t k = 1; k < text.size(); ++k) {
        if (is_special(text[k - 1]) && is_special(text[k])) {
          ++adjacent_special;
          break;
        }
      }
      size_t run = 0;
      for (char c : text) {
        if (!is_special(c)) {
          ++run;
        } else if (run > 64) {
          ++long_clean_run;
          break;
        } else {
          run = 0;
        }
      }
    }
    // The escapers append: existing content must be left untouched.
    std::string text_out = "prefix";
    append_escaped_text(text_out, text);
    ASSERT_EQ(text_out, "prefix" + reference_escape(text, false))
        << "length " << text.size() << " iteration " << i;
    std::string attribute_out = "prefix";
    append_escaped_attribute(attribute_out, text);
    ASSERT_EQ(attribute_out, "prefix" + reference_escape(text, true))
        << "length " << text.size() << " iteration " << i;
  }
  EXPECT_GT(first_special, 25'000u);
  EXPECT_GT(last_special, 25'000u);
  EXPECT_GT(adjacent_special, 25'000u);
  EXPECT_GT(long_clean_run, 10'000u);
}

TEST(EscapeTextTest, CleanMegabytePayloadPassesThroughUnchanged) {
  SplitMix64 rng(7);
  const std::string payload = rng.ascii_string(1 << 20);
  EXPECT_EQ(escape_text(payload), payload);
  EXPECT_EQ(escape_attribute(payload), payload);
}

TEST(UnescapeTest, ExpandsNamedEntities) {
  EXPECT_EQ(unescape("&amp;&lt;&gt;&quot;&apos;").value(), "&<>\"'");
  EXPECT_EQ(unescape("plain").value(), "plain");
}

TEST(UnescapeTest, ExpandsNumericReferences) {
  EXPECT_EQ(unescape("&#65;&#66;").value(), "AB");
  EXPECT_EQ(unescape("&#x41;&#x42;").value(), "AB");
  EXPECT_EQ(unescape("&#x4E2D;").value(), "中");
  EXPECT_EQ(unescape("&#128169;").value(), "\xF0\x9F\x92\xA9");
}

TEST(UnescapeTest, RejectsMalformedEntities) {
  EXPECT_FALSE(unescape("&amp").ok());       // unterminated
  EXPECT_FALSE(unescape("&bogus;").ok());    // unknown
  EXPECT_FALSE(unescape("&#;").ok());        // empty numeric
  EXPECT_FALSE(unescape("&#x;").ok());       // empty hex
  EXPECT_FALSE(unescape("&#xG;").ok());      // bad hex digit
  EXPECT_FALSE(unescape("&#12a;").ok());     // bad decimal digit
  EXPECT_FALSE(unescape("&#1114112;").ok()); // > U+10FFFF
  EXPECT_FALSE(unescape("&#xD800;").ok());   // surrogate
}

TEST(EscapeUnescapeTest, RoundTripProperty) {
  for (std::string_view sample :
       {"a<b>&c\"d'e", "", "&&&", "<<<>>>", "mixed & <tags> everywhere",
        "unicode 中文 ok"}) {
    auto back = unescape(escape_text(sample));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), sample);
  }
}

TEST(IsValidNameTest, AcceptsXmlNames) {
  EXPECT_TRUE(is_valid_name("element"));
  EXPECT_TRUE(is_valid_name("SOAP-ENV:Body"));
  EXPECT_TRUE(is_valid_name("_private"));
  EXPECT_TRUE(is_valid_name("a1-b2.c3"));
  EXPECT_TRUE(is_valid_name("中文"));
}

TEST(IsValidNameTest, RejectsInvalidNames) {
  EXPECT_FALSE(is_valid_name(""));
  EXPECT_FALSE(is_valid_name("1abc"));
  EXPECT_FALSE(is_valid_name("-abc"));
  EXPECT_FALSE(is_valid_name("has space"));
  EXPECT_FALSE(is_valid_name("lt<"));
}

TEST(AppendUtf8Test, EncodesBoundaryCodePoints) {
  auto encode = [](std::uint32_t cp) {
    std::string out;
    EXPECT_TRUE(append_utf8(out, cp));
    return out;
  };
  EXPECT_EQ(encode(0x24), "\x24");
  EXPECT_EQ(encode(0x7F), "\x7F");
  EXPECT_EQ(encode(0x80), "\xC2\x80");
  EXPECT_EQ(encode(0x7FF), "\xDF\xBF");
  EXPECT_EQ(encode(0x800), "\xE0\xA0\x80");
  EXPECT_EQ(encode(0xFFFF), "\xEF\xBF\xBF");
  EXPECT_EQ(encode(0x10000), "\xF0\x90\x80\x80");
  EXPECT_EQ(encode(0x10FFFF), "\xF4\x8F\xBF\xBF");
}

TEST(AppendUtf8Test, RejectsInvalidCodePoints) {
  std::string out;
  EXPECT_FALSE(append_utf8(out, 0xD800));
  EXPECT_FALSE(append_utf8(out, 0xDFFF));
  EXPECT_FALSE(append_utf8(out, 0x110000));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace spi::xml
