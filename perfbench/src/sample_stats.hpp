// Exact statistics over raw samples, and the per-request latency breakdown
// whose parts must add up to the whole exchange.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `samples` (q in [0,1]): the smallest sample
/// with at least q*n samples at or below it. Sorts `samples` in place.
/// 0 for an empty set.
double exact_quantile(std::vector<double>& samples, double q);

double mean(const std::vector<double>& samples);

/// Mean per-request split of one packed exchange, all in microseconds:
///   pre_execute    submit -> server request handler (client assemble and
///                  encode, wire, HTTP read, envelope parse)
///   server_execute the server's execute stage
///   post_execute   server response handler -> client callback (assemble,
///                  wire, client decode)
///   unaccounted    whatever the named parts leave of the exchange
struct Breakdown {
  double exchange_us = 0;
  double pre_execute_us = 0;
  double server_execute_us = 0;
  double post_execute_us = 0;
  double unaccounted_us = 0;

  /// Fills unaccounted_us as the exchange minus the named parts.
  static Breakdown from_parts(double exchange_us, double pre_execute_us,
                              double server_execute_us,
                              double post_execute_us);

  /// True when the four parts sum to the exchange within `tolerance_us`.
  bool adds_up(double tolerance_us = 1e-6) const;
};

}  // namespace perfbench
