#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "xml/writer.hpp"

namespace spi::xml {
namespace {

TEST(WriterTest, SimpleElement) {
  Writer writer;
  writer.start_element("root").text("body").end_element();
  EXPECT_EQ(writer.take(), "<root>body</root>");
}

TEST(WriterTest, EmptyElementCollapses) {
  Writer writer;
  writer.start_element("empty").end_element();
  EXPECT_EQ(writer.take(), "<empty/>");
}

TEST(WriterTest, AttributesAreEscaped) {
  Writer writer;
  writer.start_element("e").attribute("a", "x\"<>&y").end_element();
  EXPECT_EQ(writer.take(), "<e a=\"x&quot;&lt;&gt;&amp;y\"/>");
}

TEST(WriterTest, TextIsEscaped) {
  Writer writer;
  writer.start_element("e").text("a<b>&c").end_element();
  EXPECT_EQ(writer.take(), "<e>a&lt;b&gt;&amp;c</e>");
}

TEST(WriterTest, RawSplicesVerbatim) {
  Writer writer;
  writer.start_element("outer").raw("<pre>done</pre>").end_element();
  EXPECT_EQ(writer.take(), "<outer><pre>done</pre></outer>");
}

TEST(WriterTest, NestedElements) {
  Writer writer;
  writer.start_element("a");
  writer.start_element("b").text("x").end_element();
  writer.start_element("c").end_element();
  writer.end_element();
  EXPECT_EQ(writer.take(), "<a><b>x</b><c/></a>");
}

TEST(WriterTest, DeclarationComesFirst) {
  Writer writer;
  writer.declaration();
  writer.start_element("r").end_element();
  EXPECT_EQ(writer.take(), "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r/>");
}

TEST(WriterTest, DeclarationAfterContentThrows) {
  Writer writer;
  writer.start_element("r");
  EXPECT_THROW(writer.declaration(), SpiError);
}

TEST(WriterTest, InvalidNamesThrow) {
  Writer writer;
  EXPECT_THROW(writer.start_element("1bad"), SpiError);
  EXPECT_THROW(writer.start_element(""), SpiError);
  writer.start_element("ok");
  EXPECT_THROW(writer.attribute("bad name", "v"), SpiError);
}

TEST(WriterTest, AttributeOutsideStartTagThrows) {
  Writer writer;
  EXPECT_THROW(writer.attribute("a", "v"), SpiError);
  writer.start_element("e").text("t");
  EXPECT_THROW(writer.attribute("a", "v"), SpiError);  // tag already closed
}

TEST(WriterTest, TextOutsideElementThrows) {
  Writer writer;
  EXPECT_THROW(writer.text("orphan"), SpiError);
  writer.start_element("e").end_element();
  EXPECT_THROW(writer.text("trailing"), SpiError);
}

TEST(WriterTest, EndWithoutStartThrows) {
  Writer writer;
  EXPECT_THROW(writer.end_element(), SpiError);
}

TEST(WriterTest, TextElementShorthand) {
  Writer writer;
  writer.start_element("r");
  writer.text_element("k", "v");
  writer.text_element("empty", "");
  writer.end_element();
  EXPECT_EQ(writer.take(), "<r><k>v</k><empty/></r>");
}

TEST(WriterTest, TakeFinishesOpenElements) {
  Writer writer;
  writer.start_element("a").start_element("b").text("x");
  EXPECT_EQ(writer.take(), "<a><b>x</b></a>");
}

TEST(WriterTest, CompleteAndDepthTrackNesting) {
  Writer writer;
  EXPECT_TRUE(writer.complete());
  writer.start_element("a");
  EXPECT_EQ(writer.depth(), 1u);
  EXPECT_FALSE(writer.complete());
  writer.start_element("b");
  EXPECT_EQ(writer.depth(), 2u);
  writer.finish();
  EXPECT_TRUE(writer.complete());
}

TEST(WriterTest, CDataRoundTripsThroughParser) {
  Writer writer;
  writer.start_element("e").cdata("<raw>&stuff").end_element();
  std::string xml = writer.take();
  EXPECT_EQ(xml, "<e><![CDATA[<raw>&stuff]]></e>");
}

TEST(WriterTest, CDataSplitsEmbeddedTerminator) {
  Writer writer;
  writer.start_element("e").cdata("a]]>b").end_element();
  std::string xml = writer.take();
  // Terminator split across two sections; no literal "]]>" inside a
  // section's content.
  EXPECT_EQ(xml, "<e><![CDATA[a]]]]><![CDATA[>b]]></e>");
}

TEST(WriterTest, CDataOutsideElementThrows) {
  Writer writer;
  EXPECT_THROW(writer.cdata("x"), SpiError);
}

TEST(WriterTest, PrettyPrintingIndents) {
  Writer writer(/*pretty=*/true);
  writer.start_element("a");
  writer.start_element("b").text("x").end_element();
  writer.end_element();
  EXPECT_EQ(writer.take(), "<a>\n  <b>x</b>\n</a>");
}

// shared_text() leaves a clean string of at least kSpliceFloorBytes where
// it lies and writes everything else as text() does, so the flattened
// document is text()'s, byte for byte.
TEST(WriterTest, SharedTextSplicesOnlyCleanStringsAtTheFloor) {
  auto owned = [](size_t size, std::string_view special) {
    std::string text(size, 'v');
    if (!special.empty()) text.replace(size / 2, special.size(), special);
    return std::make_shared<const std::string>(std::move(text));
  };
  const std::shared_ptr<const std::string> strings[] = {
      owned(kSpliceFloorBytes - 1, ""), owned(kSpliceFloorBytes, ""),
      owned(kSpliceFloorBytes, "&"),    owned(kSpliceFloorBytes + 7, "\r"),
      owned(3 * kSpliceFloorBytes, ""), owned(kSpliceFloorBytes, "<>")};
  Writer shared;
  Writer copied;
  shared.start_element("r");
  copied.start_element("r");
  for (const auto& text : strings) {
    shared.start_element("s").shared_text(*text, text).end_element();
    copied.start_element("s").text(*text).end_element();
  }
  Gathered gathered = shared.take_gathered();
  ASSERT_EQ(gathered.splices().size(), 2u);
  EXPECT_EQ(gathered.splices()[0].value.bytes.data(), strings[1]->data());
  EXPECT_EQ(gathered.splices()[1].value.bytes.data(), strings[4]->data());
  EXPECT_EQ(gathered.spliced_bytes(), 4 * kSpliceFloorBytes);
  const std::string expected = copied.take();
  EXPECT_EQ(gathered.size(), expected.size());
  EXPECT_EQ(std::move(gathered).flatten(), expected);

  // take() flattens: a Writer used without take_gathered() loses nothing.
  Writer flat;
  flat.start_element("s").shared_text(*strings[4], strings[4]).end_element();
  EXPECT_EQ(flat.take(), "<s>" + *strings[4] + "</s>");
}

}  // namespace
}  // namespace spi::xml
