// Telemetry metrics registry (DESIGN.md §9): one process-visible table of
// named counters, gauges, and log-bucketed histograms, exposed as
// Prometheus text by expose(). The paper's argument is about WHERE time
// goes inside a staged SOAP server; this registry is how the repo answers
// that live instead of through offline benches.
//
// Concurrency contract: the hot path (Counter::inc, Gauge::add,
// Histogram::record_us) is lock-free — relaxed atomics only. Registration
// and scraping take a shared_mutex, which is fine because both happen off
// the request path (startup and /metrics respectively). Registered metric
// references are stable forever: entries are deque-backed and never
// erased, so components cache `Counter&` once and touch no lock again.
//
// Naming scheme: spi_<layer>_<name>{labels}, e.g.
//   spi_server_stage_seconds{stage="parse"}   (histogram)
//   spi_pool_queue_depth{pool="application"}  (gauge, scrape callback)
//   spi_dispatcher_envelopes_total            (counter)
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "common/histogram.hpp"

namespace spi::telemetry {

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, in-flight messages). Lock-free.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Histograms are the shared log-bucketed implementation (promoted from
/// the bench harness so telemetry and benches agree on one estimator).
using Histogram = spi::LatencyHistogram;

/// What a histogram's recorded values mean; decides how exposition scales
/// bucket bounds and the _sum series.
enum class HistogramUnit {
  kMicroseconds,  // record_us() latencies; exposed in seconds
  kNone,          // dimensionless observe() values (fan-out widths)
};

/// Kind of a scrape-time callback series.
enum class CallbackKind { kCounter, kGauge };

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds — same name+labels returns the same instance) a
  /// registry-owned metric. `labels` is the inner Prometheus label list
  /// without braces, e.g. `stage="parse"`; empty for none. Names must
  /// match [a-zA-Z_:][a-zA-Z0-9_:]* (throws SpiError(kInvalidArgument)).
  Counter& counter(std::string_view name, std::string_view help,
                   std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::string_view labels = {},
                       HistogramUnit unit = HistogramUnit::kMicroseconds);

  /// Registers a series whose value is computed at scrape time — the
  /// registry-backed *view* over state a component already keeps (pool
  /// queue depths, transport byte counts, component Stats atomics). The
  /// callback must stay valid for the registry's lifetime and be safe to
  /// call from the scraping thread. Re-registering the same name+labels
  /// replaces the callback.
  void add_callback(std::string_view name, std::string_view help,
                    CallbackKind kind, std::string_view labels,
                    std::function<double()> fn);

  /// Renders every registered series in Prometheus text exposition format
  /// (version 0.0.4): # HELP / # TYPE per family, then one line per
  /// series. Histograms emit a coarse cumulative `le` ladder folded from
  /// the 512 log buckets, plus _sum and _count.
  std::string expose() const;

  /// Number of registered series (families count once per label set).
  size_t series_count() const;

 private:
  enum class EntryKind { kCounter, kGauge, kHistogram, kCallback };

  struct Entry {
    EntryKind kind;
    std::string name;
    std::string labels;
    std::string help;
    HistogramUnit unit = HistogramUnit::kMicroseconds;
    CallbackKind callback_kind = CallbackKind::kGauge;
    // Owned metric storage (unused fields stay empty/zero).
    Counter counter;
    Gauge gauge;
    Histogram histogram;
    std::function<double()> callback;
  };

  Entry& find_or_insert(EntryKind kind, std::string_view name,
                        std::string_view labels, std::string_view help);

  mutable std::shared_mutex mutex_;
  std::deque<Entry> entries_;              // append-only: stable addresses
  std::map<std::string, size_t> index_;    // "name\xff{labels}" -> entries_ idx
};

/// Registers scrape-time views of the process-wide buffer pool
/// (common/buffer_pool.hpp) as spi_buffer_pool_*. Every registry that
/// binds them reads the same, whole-process values.
void bind_buffer_pool_metrics(MetricsRegistry& registry);

}  // namespace spi::telemetry
