// The incremental HTTP parser, including the property that parsing is
// invariant under how the byte stream is sliced (parameterized feed sizes).
#include <gtest/gtest.h>

#include <cstdio>
#include <type_traits>
#include <vector>

#include "http/parser.hpp"

namespace spi::http {
namespace {

constexpr std::string_view kSimpleRequest =
    "POST /spi HTTP/1.1\r\n"
    "Host: localhost\r\n"
    "Content-Type: text/xml\r\n"
    "Content-Length: 11\r\n"
    "\r\n"
    "hello world";

constexpr std::string_view kSimpleResponse =
    "HTTP/1.1 200 OK\r\n"
    "Content-Length: 2\r\n"
    "\r\n"
    "ok";

TEST(HttpParserTest, ParsesCompleteRequest) {
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed(kSimpleRequest);
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->target, "/spi");
  EXPECT_EQ(request->headers.get("content-type"), "text/xml");
  EXPECT_EQ(request->body, "hello world");
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_FALSE(parser.failed());
}

TEST(HttpParserTest, ParsesCompleteResponse) {
  MessageParser parser(MessageParser::Mode::kResponse);
  parser.feed(kSimpleResponse);
  auto response = parser.poll_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->reason, "OK");
  EXPECT_EQ(response->body, "ok");
}

TEST(HttpParserTest, WrongModePollThrows) {
  MessageParser parser(MessageParser::Mode::kRequest);
  EXPECT_THROW(parser.poll_response(), SpiError);
}

/// Feed-size invariance: the parse result must not depend on slicing.
class HttpParserFeedSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HttpParserFeedSizeTest, RequestInvariantUnderSlicing) {
  MessageParser parser(MessageParser::Mode::kRequest);
  const size_t chunk = GetParam();
  for (size_t offset = 0; offset < kSimpleRequest.size(); offset += chunk) {
    parser.feed(kSimpleRequest.substr(offset, chunk));
  }
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "hello world");
  EXPECT_EQ(request->headers.size(), 3u);
}

TEST_P(HttpParserFeedSizeTest, ChunkedBodyInvariantUnderSlicing) {
  constexpr std::string_view kChunked =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "4\r\nWiki\r\n"
      "6\r\npedia \r\n"
      "b;ext=1\r\nin chunks..\r\n"
      "0\r\n"
      "X-Trailer: v\r\n"
      "\r\n";
  MessageParser parser(MessageParser::Mode::kResponse);
  const size_t chunk = GetParam();
  for (size_t offset = 0; offset < kChunked.size(); offset += chunk) {
    parser.feed(kChunked.substr(offset, chunk));
    (void)parser.poll_response();  // polling mid-stream must be harmless
  }
  // Note: poll may have already extracted it mid-loop; re-feed approach:
  MessageParser fresh(MessageParser::Mode::kResponse);
  fresh.feed(kChunked);
  auto response = fresh.poll_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "Wikipedia in chunks..");
}

/// Patterned body bytes with CRLFs inside, so a line scan that strayed
/// into the body would split it.
std::string patterned_body(size_t size) {
  static constexpr std::string_view kPattern = "0123456789abcdef\r\n";
  std::string body(size, '\0');
  for (size_t i = 0; i < size; ++i) body[i] = kPattern[i % kPattern.size()];
  return body;
}

/// Feeds `stream` in `slice`-byte deliveries, polling after each one as
/// the connection FSM does, and collects every complete message.
template <typename Message>
std::vector<Message> parse_sliced(MessageParser& parser,
                                  std::string_view stream, size_t slice) {
  std::vector<Message> messages;
  for (size_t offset = 0; offset < stream.size(); offset += slice) {
    parser.feed(stream.substr(offset, slice));
    while (true) {
      std::optional<Message> message;
      if constexpr (std::is_same_v<Message, Request>) {
        message = parser.poll_request();
      } else {
        message = parser.poll_response();
      }
      if (!message) break;
      messages.push_back(std::move(*message));
    }
  }
  return messages;
}

TEST_P(HttpParserFeedSizeTest, LargeBodyThenPipelinedRequestIntact) {
  // Larger than one 64 KiB receive, so the body spans several deliveries
  // at every slice size except whole-message.
  const std::string body = patterned_body(80 * 1024 + 7);
  std::string stream = "POST /spi HTTP/1.1\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n" + body;
  stream += "POST /next HTTP/1.1\r\nContent-Length: 4\r\n\r\ntail";
  MessageParser parser(MessageParser::Mode::kRequest);
  auto requests = parse_sliced<Request>(parser, stream, GetParam());
  ASSERT_FALSE(parser.failed()) << parser.error().to_string();
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].target, "/spi");
  EXPECT_EQ(requests[0].body.size(), body.size());
  EXPECT_TRUE(requests[0].body == body);  // no 80 KiB diff on failure
  EXPECT_EQ(requests[1].target, "/next");
  EXPECT_EQ(requests[1].body, "tail");
  EXPECT_FALSE(parser.mid_message());
}

TEST_P(HttpParserFeedSizeTest, LargeChunkedBodyThenPipelinedResponseIntact) {
  const std::string body = patterned_body(70 * 1024 + 3);
  const size_t first = 30000;
  std::string stream = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  auto add_chunk = [&](std::string_view data) {
    char size_line[32];
    std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
    stream += size_line;
    stream += data;
    stream += "\r\n";
  };
  add_chunk(std::string_view(body).substr(0, first));
  add_chunk(std::string_view(body).substr(first));
  stream += "0\r\n\r\n";
  stream += "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n";
  MessageParser parser(MessageParser::Mode::kResponse);
  auto responses = parse_sliced<Response>(parser, stream, GetParam());
  ASSERT_FALSE(parser.failed()) << parser.error().to_string();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body.size(), body.size());
  EXPECT_TRUE(responses[0].body == body);
  EXPECT_EQ(responses[1].status, 204);
  EXPECT_TRUE(responses[1].body.empty());
  EXPECT_FALSE(parser.mid_message());
}

// 65536 matches one transport receive; npos feeds the whole stream at once.
INSTANTIATE_TEST_SUITE_P(FeedSizes, HttpParserFeedSizeTest,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 64, 4096, 65536,
                                           std::string_view::npos));

TEST(HttpParserTest, PipelinedRequestsOnOneConnection) {
  MessageParser parser(MessageParser::Mode::kRequest);
  std::string two;
  two += kSimpleRequest;
  two += "GET /next HTTP/1.1\r\nHost: h\r\n\r\n";
  parser.feed(two);
  auto first = parser.poll_request();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->target, "/spi");
  auto second = parser.poll_request();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->method, "GET");
  EXPECT_EQ(second->target, "/next");
  EXPECT_TRUE(second->body.empty());
}

TEST(HttpParserTest, LeadingCrlfBetweenMessagesTolerated) {
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed("\r\n\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\n");
  ASSERT_TRUE(parser.poll_request().has_value());
}

TEST(HttpParserTest, ZeroContentLength) {
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed("POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_TRUE(request->body.empty());
}

TEST(HttpParserTest, Http10ImpliesConnectionClose) {
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed("GET / HTTP/1.0\r\n\r\n");
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_FALSE(request->keep_alive());
}

TEST(HttpParserTest, IncompleteMessageReturnsNullopt) {
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed("POST / HTTP/1.1\r\nContent-Length: 14\r\n\r\nhalf");
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_FALSE(parser.failed());
  EXPECT_TRUE(parser.mid_message());
  parser.feed("otherhalf!");
  auto request = parser.poll_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "halfotherhalf!");
}

// --- framing errors -----------------------------------------------------------

Error feed_and_fail(MessageParser::Mode mode, std::string_view bytes,
                    ParserLimits limits = {}) {
  MessageParser parser(mode, limits);
  parser.feed(bytes);
  if (mode == MessageParser::Mode::kRequest) {
    EXPECT_FALSE(parser.poll_request().has_value());
  } else {
    EXPECT_FALSE(parser.poll_response().has_value());
  }
  EXPECT_TRUE(parser.failed());
  return parser.failed() ? parser.error() : Error(ErrorCode::kOk, "");
}

TEST(HttpParserErrorTest, MalformedRequestLine) {
  feed_and_fail(MessageParser::Mode::kRequest, "NONSENSE\r\n\r\n");
  feed_and_fail(MessageParser::Mode::kRequest, "GET /\r\n\r\n");
  feed_and_fail(MessageParser::Mode::kRequest,
                "GET / HTTP/2.0\r\n\r\n");
}

TEST(HttpParserErrorTest, MalformedStatusLine) {
  feed_and_fail(MessageParser::Mode::kResponse, "HTTP/1.1 xyz Bad\r\n\r\n");
  feed_and_fail(MessageParser::Mode::kResponse, "HTTP/1.1 99 Low\r\n\r\n");
  feed_and_fail(MessageParser::Mode::kResponse, "NOTHTTP 200 OK\r\n\r\n");
}

TEST(HttpParserErrorTest, BadHeaderLine) {
  feed_and_fail(MessageParser::Mode::kRequest,
                "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n");
  feed_and_fail(MessageParser::Mode::kRequest,
                "GET / HTTP/1.1\r\n: empty-name\r\n\r\n");
  feed_and_fail(MessageParser::Mode::kRequest,
                "GET / HTTP/1.1\r\nSpaced Name: v\r\n\r\n");
}

TEST(HttpParserErrorTest, BadContentLength) {
  feed_and_fail(MessageParser::Mode::kRequest,
                "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n");
}

TEST(HttpParserErrorTest, ConflictingFraming) {
  Error error = feed_and_fail(
      MessageParser::Mode::kRequest,
      "POST / HTTP/1.1\r\nContent-Length: 3\r\n"
      "Transfer-Encoding: chunked\r\n\r\n");
  EXPECT_NE(error.message().find("both"), std::string::npos);
}

TEST(HttpParserErrorTest, UnsupportedTransferEncoding) {
  feed_and_fail(MessageParser::Mode::kRequest,
                "POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n");
}

TEST(HttpParserErrorTest, BadChunkSize) {
  feed_and_fail(MessageParser::Mode::kResponse,
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                "zz\r\n");
}

TEST(HttpParserErrorTest, ChunkDataMissingCrlf) {
  feed_and_fail(MessageParser::Mode::kResponse,
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                "2\r\nabXX0\r\n\r\n");
}

TEST(HttpParserErrorTest, HeaderSizeLimitEnforced) {
  ParserLimits limits;
  limits.max_header_bytes = 64;
  Error error = feed_and_fail(
      MessageParser::Mode::kRequest,
      "GET / HTTP/1.1\r\nX-Big: " + std::string(200, 'x') + "\r\n\r\n",
      limits);
  EXPECT_EQ(error.code(), ErrorCode::kProtocolError);
}

TEST(HttpParserErrorTest, BodySizeLimitEnforced) {
  ParserLimits limits;
  limits.max_body_bytes = 8;
  feed_and_fail(MessageParser::Mode::kRequest,
                "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789",
                limits);
}

TEST(HttpParserErrorTest, ChunkedBodyLimitEnforced) {
  ParserLimits limits;
  limits.max_body_bytes = 4;
  feed_and_fail(MessageParser::Mode::kResponse,
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                "8\r\nabcdefgh\r\n0\r\n\r\n",
                limits);
}

TEST(HttpParserErrorTest, FeedAfterFailureIsIgnored) {
  MessageParser parser(MessageParser::Mode::kRequest);
  parser.feed("BAD\r\n\r\n");
  (void)parser.poll_request();
  ASSERT_TRUE(parser.failed());
  parser.feed("GET / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(parser.poll_request().has_value());
  EXPECT_TRUE(parser.failed());
}

TEST(AcceptEncodingTest, SimpleListKeepsOrderAtDefaultQ) {
  auto entries = parse_accept_encoding("bxml, deflate, identity");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "bxml");
  EXPECT_EQ(entries[1].name, "deflate");
  EXPECT_EQ(entries[2].name, "identity");
  for (const auto& entry : entries) EXPECT_DOUBLE_EQ(entry.q, 1.0);
}

TEST(AcceptEncodingTest, SortsByDescendingQWithStableTies) {
  auto entries =
      parse_accept_encoding("identity;q=0.2, bxml;q=0.8, deflate;q=0.8");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "bxml");  // ties keep header order
  EXPECT_EQ(entries[1].name, "deflate");
  EXPECT_EQ(entries[2].name, "identity");
}

TEST(AcceptEncodingTest, ToleratesWhitespaceAndLowercasesTokens) {
  auto entries = parse_accept_encoding("  DEFLATE ;  q=0.5 ,\tBxml  ");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "bxml");
  EXPECT_EQ(entries[1].name, "deflate");
  EXPECT_DOUBLE_EQ(entries[1].q, 0.5);
}

TEST(AcceptEncodingTest, QZeroMeansRefusedAndIsDropped) {
  auto entries = parse_accept_encoding("identity;q=0, deflate;q=0.000");
  EXPECT_TRUE(entries.empty());
}

TEST(AcceptEncodingTest, MalformedMembersAreDroppedNotFatal) {
  auto entries =
      parse_accept_encoding("deflate;q=banana, ;q=1, bxml, =0.5, ,");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "bxml");
}

TEST(AcceptEncodingTest, UnknownParametersAreIgnored) {
  auto entries = parse_accept_encoding("deflate;level=9;q=0.5");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "deflate");
  EXPECT_DOUBLE_EQ(entries[0].q, 0.5);
}

TEST(AcceptEncodingTest, WildcardIsAnOrdinaryEntry) {
  auto entries = parse_accept_encoding("*;q=0.1, deflate");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "deflate");
  EXPECT_EQ(entries[1].name, "*");
}

TEST(AcceptEncodingTest, EmptyValueYieldsNoEntries) {
  EXPECT_TRUE(parse_accept_encoding("").empty());
  EXPECT_TRUE(parse_accept_encoding("   ").empty());
}

}  // namespace
}  // namespace spi::http
