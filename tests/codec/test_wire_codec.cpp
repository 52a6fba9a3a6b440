// WireCodec unit coverage: identity/deflate/bxml round trips, corrupt-wire
// rejection (kCodecError), and the decoded-bytes budget (kCapacityExceeded
// in the "limit exceeded" shape the server counts).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "codec/bxml.hpp"
#include "codec/deflate.hpp"
#include "codec/wire_codec.hpp"
#include "common/random.hpp"
#include "soap/envelope.hpp"

namespace spi::codec {
namespace {

std::string sample_envelope(size_t repeats) {
  std::string body;
  for (size_t i = 0; i < repeats; ++i) {
    body += "<spi:Call id=\"" + std::to_string(i) +
            "\" service=\"EchoService\" operation=\"Echo\">"
            "<data xsi:type=\"xsd:string\">payload payload payload</data>"
            "</spi:Call>";
  }
  return soap::build_envelope("<spi:Parallel_Method>" + body +
                              "</spi:Parallel_Method>");
}

TEST(IdentityCodecTest, PassesBytesThrough) {
  const IdentityCodec& codec = identity_codec();
  EXPECT_EQ(codec.name(), "identity");
  auto encoded = codec.encode("hello");
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value(), "hello");
  auto decoded = codec.decode(encoded.value(), 1024, {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), "hello");
}

TEST(IdentityCodecTest, DecodeBudgetStillApplies) {
  auto decoded = identity_codec().decode(std::string(100, 'x'), 10, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(decoded.error().message().find("limit exceeded: decoded-bytes"),
            std::string::npos);
}

TEST(DeflateCodecTest, RoundTripsAndCompressesEnvelopes) {
  DeflateCodec codec;
  EXPECT_EQ(codec.name(), "deflate");
  const std::string plain = sample_envelope(32);
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded.value().size(), plain.size() / 2)
      << "repetitive envelope text must compress well";
  auto decoded = codec.decode(encoded.value(), plain.size(), {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), plain);
}

TEST(DeflateCodecTest, RoundTripsIncompressibleData) {
  DeflateCodec codec;
  SplitMix64 rng(0xD3F1A7E);
  std::string plain;
  plain.reserve(50000);
  while (plain.size() < 50000) {
    std::uint64_t word = rng.next();
    plain.append(reinterpret_cast<const char*>(&word), sizeof(word));
  }
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode(encoded.value(), plain.size(), {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), plain);
}

TEST(DeflateCodecTest, CorruptBodyIsCodecError) {
  DeflateCodec codec;
  auto encoded = codec.encode(sample_envelope(4));
  ASSERT_TRUE(encoded.ok());
  std::string corrupt = encoded.value();
  corrupt[corrupt.size() / 2] ^= 0x5A;
  corrupt[corrupt.size() / 2 + 1] ^= 0xA5;
  auto decoded = codec.decode(corrupt, 1u << 20, {});
  ASSERT_FALSE(decoded.ok());
  // A flipped bit mid-stream lands on kCodecError (invalid stream or
  // checksum mismatch) — never a crash, never silent data.
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(DeflateCodecTest, TruncatedBodyIsCodecError) {
  DeflateCodec codec;
  auto encoded = codec.encode(sample_envelope(4));
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode(
      std::string_view(encoded.value()).substr(0, encoded.value().size() / 2),
      1u << 20, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(DeflateCodecTest, DecompressionBombShedsAtBudget) {
  DeflateCodec codec;
  const std::string plain(4u << 20, 'a');  // 4 MB of one byte
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded.value().size(), 64u * 1024);
  auto decoded = codec.decode(encoded.value(), 64 * 1024, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(decoded.error().message().find("limit exceeded: decoded-bytes"),
            std::string::npos);
}

TEST(BxmlCodecTest, DocumentMatchesTextParse) {
  BxmlCodec codec;
  EXPECT_EQ(codec.name(), "bxml");
  const std::string plain = sample_envelope(8);
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  EXPECT_LT(encoded.value().size(), plain.size())
      << "known-vocabulary envelopes must shrink";
  auto document = codec.decode_document(encoded.value(), 1u << 20, {});
  ASSERT_TRUE(document.ok()) << document.error().to_string();
  auto reference = xml::parse_document(plain);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(document.value().root == reference.value().root);
  // The text edge: what every hop parses is the decoded text, and its
  // parse is the same document again.
  auto text = codec.decode(encoded.value(), 1u << 20, {});
  ASSERT_TRUE(text.ok()) << text.error().to_string();
  auto edge = xml::parse_document(std::move(text).value());
  ASSERT_TRUE(edge.ok()) << edge.error().to_string();
  EXPECT_TRUE(edge.value().root == reference.value().root);
}

TEST(BxmlCodecTest, TextDecodeRoundTrips) {
  BxmlCodec codec;
  const std::string plain = sample_envelope(2);
  auto encoded = codec.encode(plain);
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode(encoded.value(), 1u << 20, {});
  ASSERT_TRUE(decoded.ok());
  auto reference = xml::parse_document(plain);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(decoded.value(), reference.value().to_string());
}

TEST(BxmlCodecTest, MalformedInputIsInvalidArgument) {
  BxmlCodec codec;
  auto encoded = codec.encode("<open>never closed");
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.error().code(), ErrorCode::kInvalidArgument);
}

TEST(BxmlCodecTest, MissingMagicIsCodecError) {
  BxmlCodec codec;
  auto decoded = codec.decode_document("<not-bxml/>", 1024, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(BxmlCodecTest, TruncatedStreamIsCodecError) {
  BxmlCodec codec;
  auto encoded = codec.encode(sample_envelope(2));
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode_document(
      std::string_view(encoded.value()).substr(0, encoded.value().size() / 2),
      1u << 20, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCodecError);
}

TEST(BxmlCodecTest, DecodedBudgetSheds) {
  BxmlCodec codec;
  auto encoded = codec.encode(sample_envelope(64));
  ASSERT_TRUE(encoded.ok());
  auto decoded = codec.decode_document(encoded.value(), 256, {});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCapacityExceeded);
  EXPECT_NE(decoded.error().message().find("limit exceeded: decoded-bytes"),
            std::string::npos);
}

TEST(BxmlCodecTest, ParseLimitsStillGovernTheBinaryPath) {
  BxmlCodec codec;
  std::string deep = "<SOAP-ENV:Envelope><SOAP-ENV:Body>";
  for (int i = 0; i < 20; ++i) deep += "<nest>";
  for (int i = 0; i < 20; ++i) deep += "</nest>";
  deep += "</SOAP-ENV:Body></SOAP-ENV:Envelope>";
  auto encoded = codec.encode(deep);
  ASSERT_TRUE(encoded.ok());

  xml::ParseLimits tiny;
  tiny.max_depth = 8;
  auto decoded = codec.decode_document(encoded.value(), 1u << 20, tiny);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
  EXPECT_NE(decoded.error().message().find("parse limit exceeded: depth"),
            std::string::npos);
}

TEST(BxmlStaticDictionaryTest, EntriesAreUniqueAndNonEmpty) {
  auto dictionary = bxml_static_dictionary();
  ASSERT_FALSE(dictionary.empty());
  std::set<std::string_view> seen;
  for (std::string_view entry : dictionary) {
    EXPECT_FALSE(entry.empty());
    EXPECT_TRUE(seen.insert(entry).second)
        << "duplicate dictionary entry: " << entry;
  }
  // The envelope skeleton must stay at the front: wire compatibility of
  // every encoded message depends on these indices never moving.
  EXPECT_EQ(dictionary[0], "SOAP-ENV:Envelope");
}

}  // namespace
}  // namespace spi::codec
