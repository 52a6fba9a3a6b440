// Ablation of §3.3: the staged independent thread pool (Figure 2) versus
// the coupled single-thread architecture (Figure 1).
//
// With handlers that actually take time (Delay), the staged server runs a
// packed message's M calls concurrently on min(M, 32) application-stage
// workers, one claimer task each, while the coupled server runs them
// sequentially on the protocol thread.
// Expected: staged latency ~ max(handler) + overhead; coupled ~ sum.
#include <cstdio>

#include "benchsupport/harness.hpp"

using namespace spi;
using namespace spi::bench;

namespace {

double packed_delay_ms(bool staged, size_t m, std::int64_t delay_ms,
                       size_t reps) {
  FixtureOptions options;  // instant link: isolates execution concurrency
  options.server.staged = staged;
  options.server.application_threads = 32;
  EchoFixture fixture(options);

  std::vector<core::ServiceCall> calls;
  for (size_t i = 0; i < m; ++i) {
    calls.push_back(core::make_call("EchoService", "Delay",
                                    {{"milliseconds", soap::Value(delay_ms)}}));
  }

  std::vector<double> samples;
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch stopwatch;
    auto outcomes =
        fixture.client().call_packed(calls, core::PackMode::kPacked);
    double elapsed = stopwatch.elapsed_ms();
    for (const auto& outcome : outcomes) {
      if (!outcome.ok()) throw SpiError(outcome.error());
    }
    samples.push_back(elapsed);
  }
  return summarize(std::move(samples)).median_ms;
}

}  // namespace

int main() {
  const size_t reps = bench_reps(3);
  const std::int64_t delay_ms = 5;

  std::printf("=== Ablation: staged thread pool vs coupled (Fig 2 vs Fig 1) ===\n");
  std::printf(
      "packed batches of Delay(%lld ms) calls; expected: staged ~ %lld ms "
      "regardless of M, coupled ~ M x %lld ms\n\n",
      static_cast<long long>(delay_ms), static_cast<long long>(delay_ms),
      static_cast<long long>(delay_ms));

  Table table({"M", "coupled (ms)", "staged (ms)", "staged speedup"});
  for (size_t m : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16},
                   size_t{32}}) {
    double coupled = packed_delay_ms(false, m, delay_ms, reps);
    double staged = packed_delay_ms(true, m, delay_ms, reps);
    table.add_row({std::to_string(m), fmt_ms(coupled), fmt_ms(staged),
                   fmt_ratio(coupled / staged)});
  }
  table.print();
  return 0;
}
