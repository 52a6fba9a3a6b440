// Per-endpoint circuit breaking (DESIGN.md §10). A flapping endpoint is
// isolated by a three-state machine over a rolling window of recent
// connection outcomes:
//
//   closed    — normal operation; outcomes recorded into the window.
//               When the window holds >= min_samples outcomes and the
//               failure ratio reaches failure_ratio, the breaker OPENS.
//   open      — allow() fails fast with kUnavailable: no connect is
//               attempted, no backoff is slept; the caller is told in
//               microseconds what a connect timeout would tell it in
//               seconds. After open_cooldown the breaker half-opens.
//   half-open — a bounded number of probe requests are let through.
//               `required_successes` consecutive probe successes close
//               the breaker (window cleared); any probe failure re-opens
//               it and restarts the cooldown.
//
// Clock-injected (ManualClock in tests) and mutex-guarded: breaker
// decisions happen once per connection checkout, not per byte.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "net/endpoint.hpp"
#include "telemetry/metrics.hpp"

namespace spi::resilience {

struct CircuitBreakerOptions {
  /// Rolling window of most-recent connection outcomes per endpoint.
  size_t window_size = 32;
  /// Minimum outcomes in the window before the ratio is consulted (a
  /// single failure on a cold endpoint must not open the breaker).
  size_t min_samples = 8;
  /// Failure ratio in the window at which the breaker opens.
  double failure_ratio = 0.5;
  /// Open -> half-open after this long without traffic being admitted.
  Duration open_cooldown = std::chrono::milliseconds(250);
  /// Concurrent probes admitted while half-open.
  size_t half_open_probes = 1;
  /// Consecutive probe successes needed to close again.
  size_t required_successes = 1;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

std::string_view breaker_state_name(BreakerState state);

/// One endpoint's breaker. Use through CircuitBreakerSet unless the
/// deployment has exactly one endpoint.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {},
                          const Clock& clock = RealClock::instance());

  /// Gate, called before attempting a connection. Ok = proceed (and the
  /// caller MUST later report on_success/on_failure so half-open probes
  /// are accounted); kUnavailable = open, fail fast.
  Status allow();

  void on_success();
  void on_failure();

  BreakerState state() const;

  std::uint64_t rejections() const;  // fast-failed checkouts while open
  std::uint64_t opens() const;       // closed/half-open -> open transitions

 private:
  BreakerState state_locked(TimePoint now) const;
  void transition_locked(BreakerState next, TimePoint now);
  double failure_ratio_locked() const;

  const CircuitBreakerOptions options_;
  const Clock* clock_;

  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  TimePoint opened_at_{};
  std::vector<bool> window_;  // ring: true = failure
  size_t window_next_ = 0;
  size_t window_count_ = 0;
  size_t window_failures_ = 0;
  size_t probes_in_flight_ = 0;
  size_t probe_successes_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t opens_ = 0;
};

/// Breakers keyed by endpoint, created on first use. Shared by every
/// SpiClient that talks to the same fleet (ClientOptions::breakers; the
/// proxy's backend clients) so one client's observations protect the
/// others.
class CircuitBreakerSet {
 public:
  explicit CircuitBreakerSet(CircuitBreakerOptions options = {},
                             const Clock& clock = RealClock::instance());

  CircuitBreaker& for_endpoint(const net::Endpoint& endpoint);

  /// Registers scrape-time views per known endpoint:
  ///   spi_breaker_state{endpoint=...}       0=closed 1=half-open 2=open
  ///   spi_breaker_opens_total{endpoint=...}
  ///   spi_breaker_rejections_total{endpoint=...}
  /// The registry is remembered: breakers created AFTER binding (a backend
  /// added to the fleet at runtime) are bound the moment for_endpoint
  /// creates them, so spi_breaker_state covers the whole fleet, not just
  /// the members that existed at bind time. The registry must outlive
  /// this set.
  void bind_metrics(telemetry::MetricsRegistry& registry);

 private:
  void bind_one_locked(const net::Endpoint& endpoint, CircuitBreaker* breaker);

  CircuitBreakerOptions options_;
  const Clock* clock_;
  std::mutex mutex_;
  std::map<net::Endpoint, std::unique_ptr<CircuitBreaker>> breakers_;
  telemetry::MetricsRegistry* registry_ = nullptr;
};

}  // namespace spi::resilience
