#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/random.hpp"
#include "xml/parser.hpp"

namespace spi::xml {
namespace {

TEST(DomTest, BuildsTree) {
  auto doc = parse_document(
      R"(<root a="1"><child>one</child><child>two</child><other/></root>)");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  const Element& root = doc.value().root;
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.attribute("a"), "1");
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0].text, "one");
  EXPECT_EQ(root.children[1].text, "two");
}

TEST(DomTest, LocalNameStripsPrefix) {
  auto doc = parse_document("<SOAP-ENV:Body><spi:Call/></SOAP-ENV:Body>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.local_name(), "Body");
  EXPECT_EQ(doc.value().root.children[0].local_name(), "Call");
}

TEST(DomTest, FirstChildMatchesByLocalName) {
  auto doc = parse_document("<r><ns:a/><b/><a/></r>");
  ASSERT_TRUE(doc.ok());
  const Element* a = doc.value().root.first_child("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name, "ns:a");  // first match in document order
  EXPECT_EQ(doc.value().root.first_child("zzz"), nullptr);
}

TEST(DomTest, ChildrenNamedReturnsAllMatches) {
  auto doc = parse_document("<r><x/><y/><ns:x/></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.children_named("x").size(), 2u);
  EXPECT_EQ(doc.value().root.children_named("y").size(), 1u);
}

TEST(DomTest, MixedTextIsConcatenated) {
  auto doc = parse_document("<r>one<e/>two</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.text, "onetwo");
}

TEST(DomTest, TextTrimmedStripsWhitespace) {
  auto doc = parse_document("<r>\n   padded   \n</r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.text_trimmed(), "padded");
}

TEST(DomTest, CommentsAndPisAreDropped) {
  auto doc = parse_document("<r><!-- c --><?pi?><e/></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.children.size(), 1u);
}

TEST(DomTest, DeepNesting) {
  std::string input, closers;
  for (int i = 0; i < 200; ++i) {
    input += "<d" + std::to_string(i) + ">";
    closers = "</d" + std::to_string(i) + ">" + closers;
  }
  auto doc = parse_document(input + closers);
  ASSERT_TRUE(doc.ok());
  const Element* cursor = &doc.value().root;
  int depth = 1;
  while (!cursor->children.empty()) {
    cursor = &cursor->children.front();
    ++depth;
  }
  EXPECT_EQ(depth, 200);
}

TEST(DomTest, ManySiblingsPreserveOrder) {
  std::string input = "<r>";
  for (int i = 0; i < 500; ++i) {
    input += "<c>" + std::to_string(i) + "</c>";
  }
  input += "</r>";
  auto doc = parse_document(input);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().root.children.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(doc.value().root.children[i].text, std::to_string(i));
  }
}

TEST(DomTest, ToStringReserializes) {
  std::string input = R"(<r a="1"><b>x&amp;y</b><c/></r>)";
  auto doc = parse_document(input);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().root.to_string(), input);
}

// Property: parse(serialize(parse(x))) == parse(x) for generated trees.
// Element fields are views, so generated strings are interned into a
// test-owned arena that outlives the tree.
Element random_element(SplitMix64& rng, int depth, MonotonicArena& arena) {
  Element element;
  std::string element_name = "e";
  element_name += std::to_string(rng.next_below(50));
  element.name = arena.intern(element_name);
  size_t attrs = rng.next_below(3);
  for (size_t a = 0; a < attrs; ++a) {
    std::string name = "a";
    name += std::to_string(a);
    element.attributes.push_back(
        Attribute{arena.intern(name),
                  arena.intern(rng.ascii_string(rng.next_below(10)))});
  }
  if (depth > 0 && rng.next_below(2) == 0) {
    size_t kids = 1 + rng.next_below(4);
    for (size_t k = 0; k < kids; ++k) {
      element.children.push_back(random_element(rng, depth - 1, arena));
    }
  } else {
    element.text = arena.intern(rng.ascii_string(rng.next_below(20)));
  }
  return element;
}

TEST(DomPropertyTest, SerializeParseRoundTrip) {
  SplitMix64 rng(0xD0);
  for (int round = 0; round < 50; ++round) {
    MonotonicArena arena;
    Element original = random_element(rng, 4, arena);
    auto reparsed = parse_document(original.to_string());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
    EXPECT_EQ(reparsed.value().root, original) << "round " << round;
  }
}

TEST(DomPropertyTest, RoundTripWithSpecialCharacters) {
  Element element;
  element.name = "payload";
  element.text = "a<b>&c\"d'e &#x; &amp;";
  element.attributes.push_back(Attribute{"attr", "<>&\"'\t\n"});
  auto reparsed = parse_document(element.to_string());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed.value().root, element);
}

// --- a Document owns the bytes it parses -----------------------------------

bool lies_within(std::string_view view, const char* begin, size_t size) {
  const auto first = reinterpret_cast<std::uintptr_t>(begin);
  const auto at = reinterpret_cast<std::uintptr_t>(view.data());
  return at >= first && at + view.size() <= first + size;
}

TEST(DomAdoptionTest, ViewsPointIntoTheAdoptedBuffer) {
  const std::string payload(4096, 'x');
  std::string input =
      R"(<envelope id="7"><payload>)" + payload + "</payload></envelope>";
  const char* buffer = input.data();
  const size_t size = input.size();
  auto doc = parse_document(std::move(input));
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  const Element& root = doc.value().root;
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].text, payload);
  // No copy anywhere: names, attribute values and text all view the very
  // buffer the caller moved in, and the arena stays untouched.
  EXPECT_TRUE(lies_within(root.children[0].text, buffer, size));
  EXPECT_TRUE(lies_within(root.name, buffer, size));
  ASSERT_TRUE(root.attribute("id").has_value());
  EXPECT_TRUE(lies_within(*root.attribute("id"), buffer, size));
  EXPECT_EQ(doc.value().arena.bytes_reserved(), 0u);
}

// 14 bytes: std::string keeps an input this short inside the string object
// itself, so a Document holding the string by value would strand its views
// on the first move. Every earlier home below is freed before the views
// are read, which ASan reports if they still point there.
TEST(DomAdoptionTest, ShortInputViewsSurviveMovesAndResultUnwrap) {
  std::string input = R"(<r a="v">t</r>)";
  ASSERT_LE(input.size(), 15u);
  Result<Document> parsed = parse_document(std::move(input));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  Result<Document> handed_on = std::move(parsed);
  auto boxed = std::make_unique<Document>(std::move(handed_on).value());
  std::vector<Document> shelf;
  shelf.push_back(std::move(*boxed));
  boxed.reset();
  shelf.reserve(shelf.capacity() + 8);  // reallocation moves it again
  Document last = std::move(shelf.front());
  shelf.clear();
  shelf.shrink_to_fit();

  EXPECT_EQ(last.root.name, "r");
  EXPECT_EQ(last.root.attribute("a"), "v");
  EXPECT_EQ(last.root.text, "t");
  ASSERT_NE(last.source, nullptr);
  EXPECT_TRUE(lies_within(last.root.text, last.source->data(),
                          last.source->size()));
  EXPECT_EQ(last.to_string(), R"(<?xml version="1.0" encoding="UTF-8"?>)"
                              R"(<r a="v">t</r>)");
}

// --- text runs join once, at the end tag ------------------------------------

TEST(DomTextJoinTest, RunsSplitByMarkupJoinExactly) {
  auto doc = parse_document("<e>a<x/>b<!---->c</e>");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc.value().root.text, "abc");
  ASSERT_EQ(doc.value().root.children.size(), 1u);
  EXPECT_EQ(doc.value().root.children[0].name, "x");
}

TEST(DomTextJoinTest, NestedElementsJoinOnlyTheirOwnRuns) {
  auto doc = parse_document(
      "<e>a<x>1<?pi?>2<y>q<!---->r</y>3</x>b<![CDATA[<c>]]>&amp;d</e>");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  const Element& e = doc.value().root;
  EXPECT_EQ(e.text, "ab<c>&d");
  ASSERT_EQ(e.children.size(), 1u);
  const Element& x = e.children[0];
  EXPECT_EQ(x.text, "123");
  ASSERT_EQ(x.children.size(), 1u);
  EXPECT_EQ(x.children[0].text, "qr");
}

// The hostile shape: each comment splits the text into one more run. Were
// every run to re-copy the text accumulated so far, 40,000 runs would cost
// ~800 MB of arena for 320 KB of input; joined once, merged bytes stay
// within the input.
TEST(DomTextJoinTest, ManySplitRunsCostNoMoreThanTheInput) {
  constexpr size_t kRuns = 40000;
  std::string input = "<e>";
  for (size_t i = 0; i < kRuns; ++i) input += "a<!---->";
  input += "</e>";
  const size_t input_bytes = input.size();
  auto doc = parse_document(std::move(input));
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc.value().root.text, std::string(kRuns, 'a'));
  EXPECT_LE(doc.value().arena.bytes_used(), input_bytes);
  EXPECT_LE(doc.value().arena.bytes_reserved(), input_bytes);
}

}  // namespace
}  // namespace spi::xml
