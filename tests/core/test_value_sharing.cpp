// String Values share the received message instead of copying it
// (DESIGN.md §8, lifetime rule): decoded strings outlive the Envelope and
// the body they were read from, copies share bytes, text the parser had to
// write (entities, joined runs) and Documents bxml built are copied, and
// end to end a kept parameter or a client outcome outlives everything that
// decoded it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "codec/bxml.hpp"
#include "common/buffer_pool.hpp"
#include "concurrency/reactor.hpp"
#include "core/assembler.hpp"
#include "core/client.hpp"
#include "core/dispatcher.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "net/tcp_transport.hpp"
#include "services/echo.hpp"
#include "soap/serializer.hpp"

namespace spi {
namespace {

using core::CallOutcome;
using core::ServiceCall;
using soap::Value;

bool lies_within(std::string_view view, const std::string& buffer) {
  const auto first = reinterpret_cast<std::uintptr_t>(buffer.data());
  const auto at = reinterpret_cast<std::uintptr_t>(view.data());
  return at >= first && at + view.size() <= first + buffer.size();
}

/// Payloads long enough to live on the heap, one per call, each distinct.
std::vector<ServiceCall> echo_calls(size_t n, size_t bytes) {
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < n; ++i) {
    std::string data(bytes, static_cast<char>('a' + i % 26));
    data += std::to_string(i);
    calls.push_back(core::make_call("EchoService", "Echo",
                                    {{"data", Value(std::move(data))}}));
  }
  return calls;
}

TEST(ValueSharingTest, RequestStringsOutliveEnvelopeAndBody) {
  const std::vector<ServiceCall> calls = echo_calls(4, 4096);
  core::Assembler assembler;
  core::Dispatcher dispatcher;
  // The Document adopts the body, and the Envelope dies inside the parse.
  std::string body =
      assembler.assemble_request(calls, core::PackMode::kPacked).flatten();
  auto parsed = dispatcher.parse_request(std::move(body));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_EQ(parsed.value().calls.size(), calls.size());

  // Churn the heap so freed bytes would be reused before the check.
  std::vector<std::string> churn(64, std::string(8192, '#'));
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(parsed.value().calls[i].call, calls[i]) << i;
  }
}

TEST(ValueSharingTest, ResponseStringsOutliveEnvelopeAndBody) {
  std::vector<core::IndexedOutcome> outcomes;
  outcomes.reserve(3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    std::string payload(5000, 'r');
    payload += std::to_string(i);
    const CallOutcome outcome = Value(std::move(payload));
    outcomes.push_back(core::IndexedOutcome{i, outcome});
  }
  core::Assembler assembler;
  core::Dispatcher dispatcher;
  std::string body = assembler.assemble_response(outcomes, {}, true).flatten();
  auto parsed = dispatcher.parse_response(std::move(body));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  auto routed = dispatcher.route(std::move(parsed).value(), outcomes.size());
  ASSERT_TRUE(routed.ok()) << routed.error().to_string();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(routed.value()[i].ok());
    EXPECT_EQ(routed.value()[i].value(), outcomes[i].outcome.value()) << i;
  }
}

TEST(ValueSharingTest, UnescapedTextSharesTheSourceAndCopiesShareBytes) {
  auto document = xml::parse_document(
      "<call><data xsi:type=\"xsd:string\">plain payload text</data>"
      "<list><item>first</item><item>second</item></list></call>");
  ASSERT_TRUE(document.ok());
  const std::shared_ptr<const std::string> source = document.value().source;
  auto value = soap::read_value(document.value().root, source);
  ASSERT_TRUE(value.ok()) << value.error().to_string();
  document = Error(ErrorCode::kInternal, "gone");

  const Value& data = *value.value().field("data");
  EXPECT_TRUE(lies_within(data.as_string(), *source));
  for (const Value& item : value.value().field("list")->as_array()) {
    EXPECT_TRUE(lies_within(item.as_string(), *source));
  }
  // The Document is gone: this test's pointer and the three strings'.
  EXPECT_EQ(source.use_count(), 4);

  const Value copy = data;
  EXPECT_EQ(copy.as_string().data(), data.as_string().data());
  const Value owned(std::string("plain payload text"));
  EXPECT_NE(owned.as_string().data(), data.as_string().data());
  EXPECT_EQ(copy, owned);
  EXPECT_EQ(owned, data);
}

TEST(ValueSharingTest, TextTheParserWroteIsOwnedAndRoundTrips) {
  struct Case {
    const char* xml;
    const char* text;
  };
  const Case cases[] = {
      {"<v>a &amp; b</v>", "a & b"},
      {"<v>line&#13;end</v>", "line\rend"},
      {"<v>x<![CDATA[<b>&]]>y</v>", "x<b>&y"},
      {"<v>ab<!-- split -->cd</v>", "abcd"},
      {"<v xsi:type=\"xsd:string\">&lt;tag/&gt;</v>", "<tag/>"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.xml);
    auto document = xml::parse_document(c.xml);
    ASSERT_TRUE(document.ok());
    const std::shared_ptr<const std::string> source = document.value().source;
    auto value = soap::read_value(document.value().root, source);
    ASSERT_TRUE(value.ok()) << value.error().to_string();
    EXPECT_FALSE(lies_within(value.value().as_string(), *source));
    // Only the test's pointer and the Document's hold the source.
    EXPECT_EQ(source.use_count(), 2);
    document = Error(ErrorCode::kInternal, "gone");
    EXPECT_EQ(value.value().as_string(), c.text);

    auto back = soap::value_from_xml(soap::value_to_xml("v", value.value()));
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value(), value.value());
  }
}

TEST(ValueSharingTest, BxmlDocumentStringsAreOwned) {
  const std::vector<ServiceCall> calls = echo_calls(3, 2048);
  core::Assembler assembler;
  const std::string text =
      assembler.assemble_request(calls, core::PackMode::kPacked).flatten();
  codec::BxmlCodec bxml;
  auto wire = bxml.encode(text);
  ASSERT_TRUE(wire.ok()) << wire.error().to_string();
  auto document = bxml.decode_document(wire.value(), 1u << 24, {});
  ASSERT_TRUE(document.ok()) << document.error().to_string();
  EXPECT_EQ(document.value().source, nullptr);

  core::Dispatcher dispatcher;
  auto parsed = dispatcher.parse_request_document(std::move(document).value(),
                                                  wire.value().size());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  std::vector<std::string> churn(64, std::string(8192, '#'));
  ASSERT_EQ(parsed.value().calls.size(), calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(parsed.value().calls[i].call, calls[i]) << i;
  }
}

// --- end to end ---------------------------------------------------------

/// A handler that keeps the first `data` Value it sees, as is, in a
/// static, and returns it on every later call.
Result<Value> keep_first(const soap::Struct& params) {
  static std::mutex mutex;
  static std::optional<Value> kept;
  const Value* data = core::find_param(params, "data");
  if (!data) return Error(ErrorCode::kInvalidArgument, "missing 'data'");
  std::lock_guard lock(mutex);
  if (!kept) kept = *data;
  return *kept;
}

class ValueSharingEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    services::register_echo_service(registry_);
    core::ServiceBinder(registry_, "KeepService").bind("Keep", keep_first);
    server_ = std::make_unique<core::SpiServer>(
        transport_, net::Endpoint{"127.0.0.1", 0}, registry_);
    ASSERT_TRUE(server_->start().ok());
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  net::TcpTransport transport_;
  core::ServiceRegistry registry_;
  std::unique_ptr<core::SpiServer> server_;
};

TEST_F(ValueSharingEndToEndTest, KeptParamReadsIntactAfterLaterMessages) {
  const core::ClientOptions options;
  core::SpiClient client(transport_, server_->endpoint(), options);
  const std::string first = std::string(3000, 'k') + "first";
  auto kept = client.call("KeepService", "Keep", {{"data", Value(first)}});
  ASSERT_TRUE(kept.ok()) << kept.error().to_string();
  EXPECT_EQ(kept.value().as_string(), first);

  // Later messages reuse the heap the first request body was freed to,
  // were it not kept alive by the stored Value.
  for (int round = 0; round < 8; ++round) {
    std::vector<ServiceCall> calls = echo_calls(4, 3000);
    calls.push_back(core::make_call(
        "KeepService", "Keep",
        {{"data", Value(std::string(3000, 'x') + std::to_string(round))}}));
    auto outcomes = client.call_packed(calls);
    ASSERT_EQ(outcomes.size(), calls.size());
    for (size_t i = 0; i + 1 < calls.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
      EXPECT_EQ(outcomes[i].value(), calls[i].params[0].second);
    }
    ASSERT_TRUE(outcomes.back().ok()) << outcomes.back().error().to_string();
    EXPECT_EQ(outcomes.back().value().as_string(), first) << round;
  }
}

TEST_F(ValueSharingEndToEndTest, OutcomesOutliveTheirClient) {
  const std::vector<ServiceCall> calls = echo_calls(6, 5000);
  std::vector<CallOutcome> blocking;
  core::SpiClient::PackedResult async = std::vector<CallOutcome>{};
  {
    Reactor reactor;
    reactor.start();
    http::AsyncHttpClient async_http(reactor, transport_);
    core::ClientOptions options;
    options.async_client = &async_http;
    core::SpiClient async_client(transport_, server_->endpoint(), options);
    async = async_client.execute_packed_future(calls).get();

    const core::ClientOptions blocking_options;
    core::SpiClient client(transport_, server_->endpoint(), blocking_options);
    blocking = client.call_packed(calls);
  }
  server_->stop();
  server_.reset();

  ASSERT_TRUE(async.ok()) << async.error().to_string();
  ASSERT_EQ(async.value().size(), calls.size());
  ASSERT_EQ(blocking.size(), calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    ASSERT_TRUE(async.value()[i].ok()) << i;
    ASSERT_TRUE(blocking[i].ok()) << i;
    EXPECT_EQ(async.value()[i].value(), calls[i].params[0].second) << i;
    EXPECT_EQ(blocking[i].value(), calls[i].params[0].second) << i;
  }
}

// Envelope-sized buffers go back to the buffer pool where they die and
// carry later messages (common/buffer_pool.hpp). A received body goes back
// only when its last reader lets go, so strings kept from the first message
// read back intact after later messages reused pooled buffers, and outcomes
// outlive the client and server whose buffers they share.
TEST_F(ValueSharingEndToEndTest, KeptStringsSurviveReusedEnvelopeBuffers) {
  constexpr size_t kCalls = 16;
  constexpr size_t kBytes = 100 * 1000;
  constexpr int kLaterMessages = 50;
  auto message = [&](int round) {
    std::vector<ServiceCall> calls;
    for (size_t i = 0; i + 1 < kCalls; ++i) {
      std::string data(kBytes, static_cast<char>('a' + (round + i) % 26));
      data += std::to_string(round);
      calls.push_back(core::make_call("EchoService", "Echo",
                                      {{"data", Value(std::move(data))}}));
    }
    calls.push_back(core::make_call(
        "KeepService", "Keep",
        {{"data", Value(std::string(kBytes, 'k') + std::to_string(round))}}));
    return calls;
  };

  const std::vector<ServiceCall> first_calls = message(0);
  const std::vector<ServiceCall> last_calls = message(kLaterMessages);
  std::vector<CallOutcome> first;
  std::vector<CallOutcome> last;
  std::string kept;  // what the Keep handler answered the first time
  buffer_pool::Stats before;
  {
    Reactor reactor;
    reactor.start();
    http::AsyncHttpClient async_http(reactor, transport_);
    core::ClientOptions options;
    options.async_client = &async_http;
    core::SpiClient client(transport_, server_->endpoint(), options);

    auto result = client.execute_packed_future(first_calls).get();
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    first = std::move(result.value());
    ASSERT_EQ(first.size(), kCalls);
    ASSERT_TRUE(first.back().ok()) << first.back().error().to_string();
    kept = std::string(first.back().value().as_string());

    before = buffer_pool::stats();
    for (int round = 1; round <= kLaterMessages; ++round) {
      const std::vector<ServiceCall> calls =
          round == kLaterMessages ? last_calls : message(round);
      auto later = client.execute_packed_future(calls).get();
      ASSERT_TRUE(later.ok()) << later.error().to_string();
      ASSERT_EQ(later.value().size(), kCalls);
      for (size_t i = 0; i + 1 < kCalls; ++i) {
        ASSERT_TRUE(later.value()[i].ok()) << round << " " << i;
        EXPECT_EQ(later.value()[i].value(), calls[i].params[0].second)
            << round << " " << i;
      }
      // The server's kept Value shares the first request body.
      ASSERT_TRUE(later.value().back().ok()) << round;
      EXPECT_EQ(later.value().back().value().as_string(), kept) << round;
      if (round == kLaterMessages) last = std::move(later.value());
    }
  }
  const buffer_pool::Stats after = buffer_pool::stats();
  EXPECT_GE(after.reused - before.reused, size_t{kLaterMessages});
  server_->stop();
  server_.reset();

  // Fill every idle buffer: one given back while a Value still read it
  // would now read '#'.
  std::vector<std::string> idle;
  while (buffer_pool::stats().idle_bytes > 0) {
    idle.push_back(buffer_pool::take(buffer_pool::kFloorBytes));
    idle.back().assign(idle.back().capacity(), '#');
  }
  for (size_t i = 0; i + 1 < kCalls; ++i) {
    ASSERT_TRUE(first[i].ok()) << i;
    EXPECT_EQ(first[i].value(), first_calls[i].params[0].second) << i;
    ASSERT_TRUE(last[i].ok()) << i;
    EXPECT_EQ(last[i].value(), last_calls[i].params[0].second) << i;
  }
  EXPECT_EQ(first.back().value().as_string(), kept);
  EXPECT_EQ(last.back().value().as_string(), kept);
}

}  // namespace
}  // namespace spi
