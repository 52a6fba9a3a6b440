// Large payload strings travel without being copied (DESIGN.md §8): the
// Writer splices a clean string of at least xml::kSpliceFloorBytes instead
// of escaping it, the reactor drivers gather framing and strings in one
// send, and every other sink flattens. The flattened envelopes must equal
// the bytes the copying Writer produced, and every spliced string must
// stay alive until its segment is written, whoever let go of it first.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/codec.hpp"
#include "concurrency/reactor.hpp"
#include "core/assembler.hpp"
#include "core/call.hpp"
#include "core/client.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "http/async_client.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "services/echo.hpp"
#include "soap/value.hpp"
#include "xml/text.hpp"
#include "xml/writer.hpp"

namespace spi {
namespace {

using namespace std::chrono_literals;
using core::CallOutcome;
using core::PackMode;
using core::ServiceCall;
using soap::Value;

/// Deterministic calls and outcomes whose string values sit below, at and
/// above the splice floor, with and without bytes the text escape
/// replaces.
constexpr size_t kFloor = xml::kSpliceFloorBytes;

std::string payload(size_t size, std::string_view specials, size_t seed) {
  std::string text;
  text.reserve(size);
  for (size_t i = 0; text.size() < size; ++i) {
    text += static_cast<char>('a' + (i * 7 + seed) % 26);
    if (i % 61 == 60) text += ' ';
  }
  text.resize(size);
  // Specials at the start, in the middle and at the end.
  for (size_t k = 0; k < specials.size() && size >= 3; ++k) {
    const size_t at = k % 3 == 0 ? 0 : (k % 3 == 1 ? size / 2 : size - 1);
    text[at] = specials[k];
  }
  return text;
}

std::vector<soap::Value> golden_values() {
  std::vector<soap::Value> values;
  size_t seed = 0;
  for (size_t size : {size_t{100}, kFloor - 1, kFloor, kFloor + 1,
                      size_t{100000}}) {
    for (std::string_view specials :
         {std::string_view(""), std::string_view("&"), std::string_view("<"),
          std::string_view(">"), std::string_view("\r"),
          std::string_view("&<>\r&<")}) {
      values.emplace_back(payload(size, specials, ++seed));
    }
  }
  soap::Struct nested;
  nested.emplace_back("big", soap::Value(payload(3 * kFloor, "", 99)));
  nested.emplace_back("n", soap::Value(42));
  nested.emplace_back(
      "list", soap::Value(soap::Array{soap::Value(payload(kFloor, "", 7)),
                                      soap::Value(2.5), soap::Value(true),
                                      soap::Value()}));
  values.emplace_back(std::move(nested));
  values.emplace_back(std::string());
  return values;
}

std::vector<core::ServiceCall> golden_calls() {
  std::vector<core::ServiceCall> calls;
  for (soap::Value& value : golden_values()) {
    calls.push_back(core::make_call("EchoService", "Echo",
                                    {{"data", std::move(value)}}));
  }
  return calls;
}

std::vector<core::IndexedOutcome> golden_outcomes() {
  std::vector<core::IndexedOutcome> outcomes;
  std::uint32_t id = 0;
  for (soap::Value& value : golden_values()) {
    outcomes.push_back({id++, core::CallOutcome(std::move(value))});
  }
  outcomes.push_back(
      {id++, core::CallOutcome(Error(ErrorCode::kNotFound,
                                     "no operation <x> & " +
                                         payload(kFloor + 5, "", 3)))});
  return outcomes;
}

// --- golden bytes -----------------------------------------------------------

struct Golden {
  const char* name;
  size_t size;
  const char* sha1;
};

/// Sizes and SHA-1 digests of the envelopes below as the Assembler wrote
/// them when it escaped every string into the envelope (before splices).
constexpr Golden kGolden[] = {
    {"packed_request", 965142, "51fd4c1a58fb2ba36bce0514de95fce52f3daa25"},
    {"single_request_0", 551, "25bc22b2fbc1235036c5a95ce79d7f4eeef420c6"},
    {"single_request_3", 554, "e8d690363ffff942b6ea91119d16f5a1c7abcebf"},
    {"single_request_24", 100451, "f3cfa1c60cbdaf43e3cc49a08538415ff3b4936d"},
    {"single_request_25", 100455, "a1def867177fba3d13bfe0de1d394c042887dd97"},
    {"single_request_30", 66258, "ab883b7c204d9a9ec29a7df3ccf17aa1945cacad"},
    {"packed_response", 981151, "962f07ddcb00332aee7d846f4d00d646e2e4cb2d"},
    {"single_response_0", 545, "21e7c1a205584dc81f81960cc25a066693920e18"},
    {"single_response_24", 100445, "f5c49dceb7d6fd5dc9cbb5a92c54eac3f6ddda13"},
    {"single_response_25", 100449, "348f7670d30526e7f8f7b5e5592f541405087da2"},
    {"single_response_32", 16937, "f3ed7c60daa2581ffbed09635f9eb26b92365685"},
};

/// The envelopes kGolden names, as this Assembler writes them.
std::vector<std::pair<std::string, Gathered>> golden_envelopes() {
  core::Assembler assembler;
  const std::vector<ServiceCall> calls = golden_calls();
  const std::vector<core::IndexedOutcome> outcomes = golden_outcomes();
  std::vector<std::pair<std::string, Gathered>> out;
  out.emplace_back("packed_request",
                   assembler.assemble_request(calls, PackMode::kPacked));
  for (size_t i : {size_t{0}, size_t{3}, size_t{24}, size_t{25}, size_t{30}}) {
    out.emplace_back("single_request_" + std::to_string(i),
                     assembler.assemble_request(std::span(calls).subspan(i, 1),
                                                PackMode::kSingle));
  }
  out.emplace_back("packed_response",
                   assembler.assemble_response(outcomes, ServiceCall{}, true));
  const ServiceCall op = core::make_call("EchoService", "Echo", {});
  for (size_t i : {size_t{0}, size_t{24}, size_t{25}, outcomes.size() - 1}) {
    out.emplace_back(
        "single_response_" + std::to_string(i),
        assembler.assemble_response(std::span(outcomes).subspan(i, 1), op,
                                    false));
  }
  return out;
}

TEST(GatherGoldenTest, FlattenedEnvelopesEqualTheCopyingWritersBytes) {
  auto envelopes = golden_envelopes();
  ASSERT_EQ(envelopes.size(), std::size(kGolden));
  for (size_t i = 0; i < envelopes.size(); ++i) {
    SCOPED_TRACE(kGolden[i].name);
    ASSERT_EQ(envelopes[i].first, kGolden[i].name);
    const size_t gathered_size = envelopes[i].second.size();
    const std::string flat = std::move(envelopes[i].second).flatten();
    EXPECT_EQ(gathered_size, flat.size());
    EXPECT_EQ(flat.size(), kGolden[i].size);
    EXPECT_EQ(sha1_hex(flat), kGolden[i].sha1);
  }
}

TEST(GatherGoldenTest, OnlyCleanStringsAtTheFloorAreSpliced) {
  core::Assembler assembler;
  const std::vector<ServiceCall> calls = golden_calls();
  Gathered envelope = assembler.assemble_request(calls, PackMode::kPacked);
  // Clean strings of kFloor, kFloor + 1 and 100000 bytes, the nested
  // struct's 3 * kFloor string and its list's kFloor string; nothing below
  // the floor, nothing with a byte to escape.
  ASSERT_EQ(envelope.splices().size(), 5u);
  size_t previous = 0;
  for (const Splice& splice : envelope.splices()) {
    EXPECT_GE(splice.value.bytes.size(), kFloor);
    EXPECT_EQ(xml::find_text_escape(splice.value.bytes),
              std::string_view::npos);
    EXPECT_GE(splice.offset, previous);
    EXPECT_LE(splice.offset, envelope.framing().size());
    previous = splice.offset;
  }
  // The splice is the caller's bytes themselves, not a copy of them.
  const std::string_view clean_at_floor = calls[12].params[0].second.as_string();
  ASSERT_EQ(clean_at_floor.size(), kFloor);
  EXPECT_EQ(envelope.splices()[0].value.bytes.data(), clean_at_floor.data());
  EXPECT_EQ(envelope.splices()[0].value.owner,
            calls[12].params[0].second.string_owner());
}

/// Packed echo calls of `n` strings of `bytes` each, the text escape
/// finding `specials` in every one.
std::vector<ServiceCall> echo_calls(size_t n, size_t bytes,
                                    std::string_view specials) {
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < n; ++i) {
    calls.push_back(core::make_call(
        "EchoService", "Echo", {{"data", Value(payload(bytes, specials, i))}}));
  }
  return calls;
}

std::uint64_t pool_takes() {
  const buffer_pool::Stats stats = buffer_pool::stats();
  return stats.reused + stats.fresh;
}

TEST(GatherGoldenTest, FramingReservationLeavesSplicedStringsOut) {
  core::Assembler assembler;
  const std::vector<ServiceCall> calls = echo_calls(4, 100000, "");
  const std::uint64_t takes = pool_takes();
  Gathered envelope = assembler.assemble_request(calls, PackMode::kPacked);
  EXPECT_EQ(envelope.spliced_bytes(), 400000u);
  EXPECT_LT(envelope.framing().capacity(), buffer_pool::kFloorBytes);
  EXPECT_EQ(pool_takes(), takes) << "an envelope-sized framing was taken";
}

// Strings at the floor that must be escaped after all were left out of
// the framing's reservation: the first one grows it once, from the buffer
// pool, for every such string to come, instead of doubling it there.
TEST(GatherGoldenTest, CopiedStringsAtTheFloorGrowTheFramingOnce) {
  core::Assembler assembler;
  const std::vector<ServiceCall> calls = echo_calls(16, 100000, "&");
  const std::uint64_t takes = pool_takes();
  Gathered envelope = assembler.assemble_request(calls, PackMode::kPacked);
  EXPECT_EQ(pool_takes(), takes + 1);
  EXPECT_EQ(envelope.spliced_bytes(), 0u);
  EXPECT_GT(envelope.framing().size(), 1600000u);
  EXPECT_LT(envelope.framing().capacity(), 2 * envelope.framing().size());
}

TEST(GatherGoldenTest, WirePiecesReassembleTheSerializedMessage) {
  core::Assembler assembler;
  const std::vector<ServiceCall> calls = golden_calls();
  http::Request request;
  request.target = "/spi";
  request.set_body(assembler.assemble_request(calls, PackMode::kPacked));
  ASSERT_FALSE(request.splices.empty());
  const std::string serialized = request.serialize();
  EXPECT_NE(serialized.find("Content-Length: " +
                            std::to_string(request.body_size()) + "\r\n"),
            std::string::npos);
  http::Request copy = request;  // a hedge leg's copy shares the strings
  EXPECT_EQ(copy.splices.front().value.owner,
            request.splices.front().value.owner);
  std::string joined;
  for (const SharedBytes& piece : request.take_wire_pieces()) {
    EXPECT_FALSE(piece.bytes.empty());
    joined += piece.bytes;
  }
  EXPECT_EQ(joined, serialized);
  EXPECT_EQ(copy.serialize(), serialized);
}

// --- lifetimes end to end ---------------------------------------------------

/// Packed echo calls of distinct large clean strings, spliced on the wire.
std::vector<ServiceCall> big_echo_calls(size_t n, size_t bytes, size_t seed) {
  std::vector<ServiceCall> calls;
  for (size_t i = 0; i < n; ++i) {
    calls.push_back(core::make_call(
        "EchoService", "Echo",
        {{"data", Value(payload(bytes, "", seed * 31 + i))}}));
  }
  return calls;
}

std::vector<std::string> texts_of(const std::vector<ServiceCall>& calls) {
  std::vector<std::string> texts;
  for (const ServiceCall& call : calls) {
    texts.emplace_back(call.params[0].second.as_string());
  }
  return texts;
}

void expect_echoed(const core::SpiClient::PackedResult& result,
                   const std::vector<std::string>& texts) {
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(result.value()[i].ok()) << result.value()[i].error().to_string();
    EXPECT_EQ(result.value()[i].value().as_string(), texts[i]) << i;
  }
}

class GatherLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    services::register_echo_service(registry_);
    // Answers with the tail of its argument: a Value that shares the
    // request body at an offset, so the reply's splice holds the body.
    core::ServiceBinder(registry_, "SliceService")
        .bind("Tail", [](const soap::Struct& params) -> Result<Value> {
          const Value& data = params.at(0).second;
          return Value::shared_string(data.string_owner(),
                                      data.as_string().substr(1));
        });
    // Stalls while `stall_next_` holds tokens, then echoes: the knob that
    // makes a hedge fire.
    core::ServiceBinder(registry_, "TailService")
        .bind_idempotent("Get", [this](const soap::Struct& params)
                                    -> Result<Value> {
          if (stall_next_.fetch_sub(1) > 0) std::this_thread::sleep_for(300ms);
          return params.empty() ? Value("fast") : params.at(0).second;
        });
    server_ = std::make_unique<core::SpiServer>(
        transport_, net::Endpoint{"127.0.0.1", 0}, registry_);
    ASSERT_TRUE(server_->start().ok());
    reactor_.start();
    async_http_ = std::make_unique<http::AsyncHttpClient>(reactor_, transport_);
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<core::SpiClient> make_client(core::ClientOptions options) {
    options.async_client = async_http_.get();
    options.retry.idempotent = registry_.idempotency_predicate();
    return std::make_unique<core::SpiClient>(transport_, server_->endpoint(),
                                             std::move(options));
  }

  net::TcpTransport transport_;
  core::ServiceRegistry registry_;
  std::atomic<int> stall_next_{0};
  std::unique_ptr<core::SpiServer> server_;
  Reactor reactor_;
  std::unique_ptr<http::AsyncHttpClient> async_http_;
};

TEST_F(GatherLifetimeTest, CallerDropsItsBatchRightAfterExecutePackedAsync) {
  const core::ClientOptions options;
  auto client = make_client(options);
  for (size_t round = 0; round < 4; ++round) {
    std::vector<ServiceCall> calls = big_echo_calls(16, 100000, round);
    const std::vector<std::string> texts = texts_of(calls);
    std::promise<core::SpiClient::PackedResult> done;
    client->execute_packed_async(
        std::move(calls), PackMode::kPacked,
        [&done](core::SpiClient::PackedResult result) {
          done.set_value(std::move(result));
        });
    calls.clear();  // the caller holds no reference to any string now
    expect_echoed(done.get_future().get(), texts);
  }
}

// Per bulk message only the two received bodies are envelope-sized
// buffers: both envelopes are framing, their strings spliced.
TEST_F(GatherLifetimeTest, TwoEnvelopeSizedBuffersPerBulkMessage) {
  const core::ClientOptions options;
  auto client = make_client(options);
  constexpr std::uint64_t kMessages = 5;
  const buffer_pool::Stats before = buffer_pool::stats();
  for (size_t m = 0; m < kMessages; ++m) {
    std::vector<ServiceCall> calls = big_echo_calls(16, 100000, m);
    const std::vector<std::string> texts = texts_of(calls);
    expect_echoed(client->execute_packed_future(std::move(calls)).get(),
                  texts);
  }
  const buffer_pool::Stats after = buffer_pool::stats();
  EXPECT_EQ(after.reused + after.fresh - before.reused - before.fresh,
            2 * kMessages);
}

TEST_F(GatherLifetimeTest, HandlerResultSharingTheRequestBodyIsSpliced) {
  const core::ClientOptions options;
  auto client = make_client(options);
  std::vector<ServiceCall> calls;
  std::vector<std::string> tails;
  for (size_t i = 0; i < 8; ++i) {
    std::string data = payload(60000 + i, "", i);
    tails.push_back(data.substr(1));
    calls.push_back(core::make_call("SliceService", "Tail",
                                    {{"data", Value(std::move(data))}}));
  }
  auto result = client->execute_packed_future(std::move(calls)).get();
  server_->stop();  // the reply was written; its request body is gone
  server_.reset();
  expect_echoed(result, tails);
}

TEST_F(GatherLifetimeTest, HedgeLegSharesTheSplicedStrings) {
  core::ClientOptions options;
  options.hedge.enabled = true;
  options.hedge.quantile = 0.5;
  options.hedge.min_delay = 2ms;
  options.hedge.warmup = 5;
  auto client = make_client(options);
  for (int i = 0; i < 5; ++i) {
    std::vector<ServiceCall> warm;
    warm.push_back(core::make_call("TailService", "Get", {}));
    ASSERT_TRUE(client->execute_packed_future(std::move(warm)).get().ok());
  }
  stall_next_.store(1);
  std::vector<ServiceCall> calls;
  const std::string text = payload(150000, "", 5);
  calls.push_back(
      core::make_call("TailService", "Get", {{"data", Value(text)}}));
  auto result = client->execute_packed_future(std::move(calls)).get();
  expect_echoed(result, {text});
  EXPECT_EQ(client->stats().hedges_sent, 1u);
}

TEST_F(GatherLifetimeTest, DeflateAndBxmlFlattenTheEnvelope) {
  for (const char* request_codec : {"deflate", "bxml"}) {
    SCOPED_TRACE(request_codec);
    core::ClientOptions options;
    options.request_codec = request_codec;
    options.accept_codecs = {std::string(request_codec) == "bxml" ? "deflate"
                                                                  : "bxml"};
    auto client = make_client(options);
    std::vector<ServiceCall> calls = big_echo_calls(4, 70000, 9);
    const std::vector<std::string> texts = texts_of(calls);
    expect_echoed(client->execute_packed_future(std::move(calls)).get(),
                  texts);
  }
}

TEST(GatherBlockingTest, BlockingDriversOverSimTransportFlatten) {
  net::SimTransport transport;  // no fds: the blocking drivers
  core::ServiceRegistry registry;
  services::register_echo_service(registry);
  core::SpiServer server(transport, net::Endpoint{"server", 80}, registry);
  ASSERT_TRUE(server.start().ok());
  {
    const core::ClientOptions options;
    core::SpiClient client(transport, server.endpoint(), options);
    std::vector<ServiceCall> calls = big_echo_calls(6, 50000, 3);
    const std::vector<std::string> texts = texts_of(calls);
    std::vector<CallOutcome> outcomes = client.call_packed(calls);
    calls.clear();
    ASSERT_EQ(outcomes.size(), texts.size());
    for (size_t i = 0; i < texts.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
      EXPECT_EQ(outcomes[i].value().as_string(), texts[i]);
    }
  }
  server.stop();
}

}  // namespace
}  // namespace spi
