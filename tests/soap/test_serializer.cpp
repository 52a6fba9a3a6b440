#include <gtest/gtest.h>

#include "common/random.hpp"
#include "soap/serializer.hpp"

namespace spi::soap {
namespace {

Value round_trip(const Value& value) {
  std::string xml = value_to_xml("v", value);
  auto back = value_from_xml(xml);
  EXPECT_TRUE(back.ok()) << back.error().to_string() << " for " << xml;
  return back.ok() ? back.value() : Value();
}

TEST(SerializerTest, StringEncoding) {
  EXPECT_EQ(value_to_xml("city", Value("Beijing")),
            R"(<city xsi:type="xsd:string">Beijing</city>)");
}

TEST(SerializerTest, IntEncoding) {
  EXPECT_EQ(value_to_xml("n", Value(-42)),
            R"(<n xsi:type="xsd:int">-42</n>)");
}

TEST(SerializerTest, BoolEncoding) {
  EXPECT_EQ(value_to_xml("b", Value(true)),
            R"(<b xsi:type="xsd:boolean">true</b>)");
}

TEST(SerializerTest, NullEncoding) {
  EXPECT_EQ(value_to_xml("x", Value()), R"(<x xsi:nil="true"/>)");
}

TEST(SerializerTest, ArrayEncodingHasArrayType) {
  std::string xml = value_to_xml("a", Value(Array{Value(1), Value(2)}));
  EXPECT_NE(xml.find("SOAP-ENC:arrayType=\"xsd:anyType[2]\""),
            std::string::npos);
  EXPECT_NE(xml.find("<item xsi:type=\"xsd:int\">1</item>"),
            std::string::npos);
}

TEST(SerializerTest, ScalarRoundTrips) {
  EXPECT_EQ(round_trip(Value()), Value());
  EXPECT_EQ(round_trip(Value(true)), Value(true));
  EXPECT_EQ(round_trip(Value(false)), Value(false));
  EXPECT_EQ(round_trip(Value(0)), Value(0));
  EXPECT_EQ(round_trip(Value(-123456789)), Value(-123456789));
  EXPECT_EQ(round_trip(Value("hello")), Value("hello"));
  EXPECT_EQ(round_trip(Value("")), Value(""));
  EXPECT_EQ(round_trip(Value(3.25)), Value(3.25));
  EXPECT_EQ(round_trip(Value(1e-17)), Value(1e-17));
}

TEST(SerializerTest, SpecialCharactersRoundTrip) {
  EXPECT_EQ(round_trip(Value("a<b>&\"'c")), Value("a<b>&\"'c"));
  EXPECT_EQ(round_trip(Value("line1\nline2\ttabbed")),
            Value("line1\nline2\ttabbed"));
  EXPECT_EQ(round_trip(Value("中文 payload")), Value("中文 payload"));
}

TEST(SerializerTest, EmptyContainersRoundTrip) {
  EXPECT_EQ(round_trip(Value(Array{})), Value(Array{}));
  EXPECT_EQ(round_trip(Value(Struct{})), Value(Struct{}));
}

TEST(SerializerTest, NestedStructuresRoundTrip) {
  Value value(Struct{
      {"flights", Value(Array{
                      Value(Struct{{"id", Value("CA-101")},
                                   {"price", Value(84500)}}),
                      Value(Struct{{"id", Value("NB-9")},
                                   {"price", Value(72300)}}),
                  })},
      {"count", Value(2)},
      {"meta", Value(Struct{{"nested", Value(Array{Value(Array{Value(1)})})}})},
  });
  EXPECT_EQ(round_trip(value), value);
}

TEST(SerializerTest, DeserializeToleratesMissingXsiType) {
  // Loosely-typed producers: no xsi:type anywhere.
  auto string_value = value_from_xml("<v>plain text</v>");
  ASSERT_TRUE(string_value.ok());
  EXPECT_EQ(string_value.value(), Value("plain text"));

  auto array_value = value_from_xml("<v><item>1</item><item>2</item></v>");
  ASSERT_TRUE(array_value.ok());
  ASSERT_TRUE(array_value.value().is_array());
  EXPECT_EQ(array_value.value().as_array()[0], Value("1"));

  auto struct_value = value_from_xml("<v><a>1</a><b>2</b></v>");
  ASSERT_TRUE(struct_value.ok());
  ASSERT_TRUE(struct_value.value().is_struct());
  EXPECT_EQ(struct_value.value().field("b")->as_string(), "2");
}

TEST(SerializerTest, AcceptsWiderIntegerTypes) {
  auto v = value_from_xml(R"(<v xsi:type="xsd:long">9999999999</v>)");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().as_int(), 9999999999LL);
}

TEST(SerializerTest, BooleanAcceptsNumericForms) {
  EXPECT_EQ(value_from_xml(R"(<v xsi:type="xsd:boolean">1</v>)").value(),
            Value(true));
  EXPECT_EQ(value_from_xml(R"(<v xsi:type="xsd:boolean">0</v>)").value(),
            Value(false));
}

TEST(SerializerTest, RejectsMalformedTypedValues) {
  EXPECT_FALSE(value_from_xml(R"(<v xsi:type="xsd:int">4x</v>)").ok());
  EXPECT_FALSE(value_from_xml(R"(<v xsi:type="xsd:int"></v>)").ok());
  EXPECT_FALSE(value_from_xml(R"(<v xsi:type="xsd:boolean">maybe</v>)").ok());
  EXPECT_FALSE(value_from_xml(R"(<v xsi:type="xsd:double">1..2</v>)").ok());
}

// Property sweep: random values of every shape round-trip exactly.
Value random_value(SplitMix64& rng, int depth) {
  switch (depth > 0 ? rng.next_below(7) : rng.next_below(5)) {
    case 0: return Value();
    case 1: return Value(rng.next_below(2) == 0);
    case 2: return Value(static_cast<std::int64_t>(rng.next()));
    case 3: return Value(rng.ascii_string(rng.next_below(40)));
    case 4: {
      // Doubles from a round-trippable generator.
      return Value(static_cast<double>(static_cast<std::int64_t>(
                       rng.next_below(1'000'000))) /
                   64.0);
    }
    case 5: {
      Array items;
      size_t n = rng.next_below(4);
      for (size_t i = 0; i < n; ++i) {
        items.push_back(random_value(rng, depth - 1));
      }
      return Value(std::move(items));
    }
    default: {
      Struct fields;
      size_t n = rng.next_below(4);
      for (size_t i = 0; i < n; ++i) {
        std::string name = "f";
        name += std::to_string(i);
        fields.emplace_back(std::move(name), random_value(rng, depth - 1));
      }
      return Value(std::move(fields));
    }
  }
}

class SerializerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializerPropertyTest, RandomValuesRoundTrip) {
  SplitMix64 rng(0x5EA1 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 25; ++i) {
    Value value = random_value(rng, 4);
    EXPECT_EQ(round_trip(value), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace spi::soap
