// Hot-path deserialization benchmarks (google-benchmark): the envelope
// parse -> dispatch pipeline the paper's burst workloads stress. Measured
// at M in {1, 10, 100} packed Echo calls so the zero-copy tokenizer and
// arena-backed DOM can be compared against the owning-string baseline.
//
// Reported counters:
//   items/s on BM_TokenizeEnvelope / BM_EnvelopeDomParse = XML tokens/sec
//   items/s on BM_ParseDispatch / BM_AssembleRequest     = calls/sec
#include <benchmark/benchmark.h>

#include "benchsupport/workload.hpp"
#include "core/assembler.hpp"
#include "core/dispatcher.hpp"
#include "core/wire.hpp"
#include "services/echo.hpp"
#include "soap/envelope.hpp"
#include "xml/parser.hpp"

namespace {

using namespace spi;

std::string packed_envelope(size_t calls, std::uint64_t seed) {
  auto batch = bench::make_echo_calls(calls, 100, seed);
  return soap::build_envelope(core::wire::serialize_packed_request(batch));
}

int64_t count_tokens(const std::string& input) {
  xml::PullParser parser(input);
  int64_t tokens = 0;
  while (true) {
    auto token = parser.next();
    if (!token.ok() || token.value().type == xml::TokenType::kEndOfDocument) {
      break;
    }
    ++tokens;
  }
  return tokens;
}

// Raw tokenizer sweep: every token in an M-call packed envelope.
void BM_TokenizeEnvelope(benchmark::State& state) {
  std::string envelope = packed_envelope(static_cast<size_t>(state.range(0)),
                                         /*seed=*/11);
  int64_t tokens = count_tokens(envelope);
  for (auto _ : state) {
    xml::PullParser parser(envelope);
    while (true) {
      auto token = parser.next();
      if (!token.ok() ||
          token.value().type == xml::TokenType::kEndOfDocument) {
        break;
      }
      benchmark::DoNotOptimize(token);
    }
  }
  state.SetItemsProcessed(state.iterations() * tokens);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(envelope.size()));
}
BENCHMARK(BM_TokenizeEnvelope)->Arg(1)->Arg(10)->Arg(100);

// Full DOM request parse: Envelope::parse + wire::parse_request, the
// server-side step 1 the acceptance criterion targets (tokens/sec).
void BM_EnvelopeDomParse(benchmark::State& state) {
  std::string envelope = packed_envelope(static_cast<size_t>(state.range(0)),
                                         /*seed=*/12);
  int64_t tokens = count_tokens(envelope);
  for (auto _ : state) {
    auto parsed = soap::Envelope::parse(envelope);
    auto request = core::wire::parse_request(parsed.value());
    benchmark::DoNotOptimize(request);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(envelope.size()));
}
BENCHMARK(BM_EnvelopeDomParse)->Arg(1)->Arg(10)->Arg(100);

// Parse + dispatch: Dispatcher::parse_request then execute against the
// echo registry on the calling thread (no pool, so the measurement is the
// protocol path, not thread handoff).
void BM_ParseDispatch(benchmark::State& state) {
  std::string envelope = packed_envelope(static_cast<size_t>(state.range(0)),
                                         /*seed=*/13);
  core::ServiceRegistry registry;
  services::register_echo_service(registry);
  core::Dispatcher dispatcher;
  for (auto _ : state) {
    auto request = dispatcher.parse_request(envelope);
    auto outcomes =
        dispatcher.execute(request.value(), registry, /*pool=*/nullptr);
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(envelope.size()));
}
BENCHMARK(BM_ParseDispatch)->Arg(1)->Arg(10)->Arg(100);

// Write side, steady state: the same Assembler packing batch after batch,
// the path the reusable-Writer change makes O(1) allocations.
void BM_AssembleRequest(benchmark::State& state) {
  auto calls = bench::make_echo_calls(static_cast<size_t>(state.range(0)),
                                      100, /*seed=*/14);
  core::Assembler assembler;
  for (auto _ : state) {
    std::string envelope = assembler.assemble_request(calls).flatten();
    benchmark::DoNotOptimize(envelope);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AssembleRequest)->Arg(1)->Arg(10)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
