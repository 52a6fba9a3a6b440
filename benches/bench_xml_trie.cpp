// Micro-benchmarks (google-benchmark) for the XML substrate: the tag-trie
// optimization from Chiu et al. (§2.2, reference [2]) against linear tag
// matching, plus parse/serialize throughput on packed envelopes.
#include <benchmark/benchmark.h>

#include "benchsupport/workload.hpp"
#include "core/wire.hpp"
#include "soap/envelope.hpp"
#include "xml/parser.hpp"
#include "xml/trie.hpp"

namespace {

using namespace spi;

// The tag vocabulary of an SPI envelope (what the deserializer matches).
const std::vector<std::string>& spi_tags() {
  static const std::vector<std::string> tags = {
      "Envelope", "Header",   "Body",         "Fault",
      "Parallel_Method",      "Call",         "Parallel_Response",
      "CallResponse",         "return",       "item",
      "faultcode", "faultstring", "faultactor", "detail",
      "Security", "UsernameToken", "Username", "Password",
      "Nonce",    "Created",  "Timestamp",    "data",
  };
  return tags;
}

// A realistic stream of tags to classify: what a packed envelope parse
// would look up, with namespace prefixes.
std::vector<std::string> tag_stream(size_t n) {
  static const char* kStream[] = {
      "SOAP-ENV:Envelope", "SOAP-ENV:Body",  "spi:Parallel_Method",
      "spi:Call",          "data",           "spi:Call",
      "data",              "spi:CallResponse", "return",
      "item",              "SOAP-ENV:Fault", "faultstring",
  };
  std::vector<std::string> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stream.emplace_back(kStream[i % std::size(kStream)]);
  }
  return stream;
}

void BM_TagMatchTrie(benchmark::State& state) {
  xml::TagTrie trie;
  for (const auto& tag : spi_tags()) trie.insert(tag);
  auto stream = tag_stream(1024);
  for (auto _ : state) {
    int sum = 0;
    for (const auto& tag : stream) sum += trie.find_local(tag);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_TagMatchTrie);

void BM_TagMatchLinear(benchmark::State& state) {
  xml::LinearTagMatcher matcher;
  for (const auto& tag : spi_tags()) matcher.insert(tag);
  auto stream = tag_stream(1024);
  for (auto _ : state) {
    int sum = 0;
    for (const auto& tag : stream) sum += matcher.find_local(tag);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_TagMatchLinear);

void BM_PackedEnvelopeSerialize(benchmark::State& state) {
  auto calls = bench::make_echo_calls(static_cast<size_t>(state.range(0)),
                                      100, /*seed=*/1);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string envelope =
        soap::build_envelope(core::wire::serialize_packed_request(calls));
    bytes = envelope.size();
    benchmark::DoNotOptimize(envelope);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_PackedEnvelopeSerialize)->Arg(1)->Arg(16)->Arg(128);

void BM_PackedEnvelopeParse(benchmark::State& state) {
  auto calls = bench::make_echo_calls(static_cast<size_t>(state.range(0)),
                                      100, /*seed=*/2);
  std::string envelope =
      soap::build_envelope(core::wire::serialize_packed_request(calls));
  for (auto _ : state) {
    auto parsed = soap::Envelope::parse(envelope);
    auto request = core::wire::parse_request(parsed.value());
    benchmark::DoNotOptimize(request);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(envelope.size()));
}
BENCHMARK(BM_PackedEnvelopeParse)->Arg(1)->Arg(16)->Arg(128);

void BM_XmlDomParse100K(benchmark::State& state) {
  auto calls = bench::make_echo_calls(1, 100'000, /*seed=*/3);
  std::string envelope =
      soap::build_envelope(core::wire::serialize_packed_request(calls));
  for (auto _ : state) {
    auto document = xml::parse_document(envelope);
    benchmark::DoNotOptimize(document);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(envelope.size()));
}
BENCHMARK(BM_XmlDomParse100K);

}  // namespace

BENCHMARK_MAIN();
