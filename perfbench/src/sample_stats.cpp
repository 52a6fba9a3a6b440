#include "sample_stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double exact_quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Breakdown Breakdown::from_parts(double exchange_us, double pre_execute_us,
                                double server_execute_us,
                                double post_execute_us) {
  Breakdown b;
  b.exchange_us = exchange_us;
  b.pre_execute_us = pre_execute_us;
  b.server_execute_us = server_execute_us;
  b.post_execute_us = post_execute_us;
  b.unaccounted_us =
      exchange_us - pre_execute_us - server_execute_us - post_execute_us;
  return b;
}

bool Breakdown::adds_up(double tolerance_us) const {
  const double sum =
      pre_execute_us + server_execute_us + post_execute_us + unaccounted_us;
  return std::fabs(sum - exchange_us) <= tolerance_us;
}

}  // namespace perfbench
