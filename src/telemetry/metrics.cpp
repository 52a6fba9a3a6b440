#include "telemetry/metrics.hpp"

#include <cstdio>
#include <mutex>

#include "common/buffer_pool.hpp"
#include "common/error.hpp"

namespace spi::telemetry {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

std::string series_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  key.push_back('\xff');  // not legal in names or label values we emit
  key.append(labels);
  return key;
}

void append_series_name(std::string& out, const std::string& name,
                        const std::string& labels,
                        std::string_view suffix = {},
                        std::string_view extra_label = {}) {
  out += name;
  out += suffix;
  if (!labels.empty() || !extra_label.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
}

void append_double(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

/// Coarse cumulative bucket ladder for exposition, in the histogram's
/// native unit (us for latencies): a 1-2-5 decade ladder from 1 to 1e7.
constexpr double kLadder[] = {1,   2,   5,   10,  20,  50,  1e2, 2e2,
                              5e2, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5,
                              2e5, 5e5, 1e6, 2e6, 5e6, 1e7};
constexpr size_t kLadderSize = sizeof(kLadder) / sizeof(kLadder[0]);

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::find_or_insert(
    EntryKind kind, std::string_view name, std::string_view labels,
    std::string_view help) {
  if (!valid_metric_name(name)) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "invalid metric name '" + std::string(name) + "'");
  }
  std::string key = series_key(name, labels);
  std::unique_lock lock(mutex_);
  if (auto it = index_.find(key); it != index_.end()) {
    Entry& existing = entries_[it->second];
    if (existing.kind != kind) {
      throw SpiError(ErrorCode::kInvalidArgument,
                     "metric '" + std::string(name) +
                         "' re-registered with a different kind");
    }
    return existing;
  }
  Entry& entry = entries_.emplace_back();
  entry.kind = kind;
  entry.name = std::string(name);
  entry.labels = std::string(labels);
  entry.help = std::string(help);
  index_.emplace(std::move(key), entries_.size() - 1);
  return entry;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help,
                                  std::string_view labels) {
  return find_or_insert(EntryKind::kCounter, name, labels, help).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view labels) {
  return find_or_insert(EntryKind::kGauge, name, labels, help).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::string_view labels,
                                      HistogramUnit unit) {
  Entry& entry = find_or_insert(EntryKind::kHistogram, name, labels, help);
  entry.unit = unit;
  return entry.histogram;
}

void MetricsRegistry::add_callback(std::string_view name,
                                   std::string_view help, CallbackKind kind,
                                   std::string_view labels,
                                   std::function<double()> fn) {
  Entry& entry = find_or_insert(EntryKind::kCallback, name, labels, help);
  entry.callback_kind = kind;
  entry.callback = std::move(fn);
}

size_t MetricsRegistry::series_count() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

std::string MetricsRegistry::expose() const {
  std::shared_lock lock(mutex_);
  std::string out;
  out.reserve(256 + entries_.size() * 96);
  // HELP/TYPE are emitted once per family, on its first series, in
  // registration order (label variants registered together stay together).
  std::map<std::string, bool> family_emitted;
  for (const Entry& entry : entries_) {
    if (!family_emitted[entry.name]) {
      family_emitted[entry.name] = true;
      out += "# HELP ";
      out += entry.name;
      out += ' ';
      out += entry.help;
      out += '\n';
      out += "# TYPE ";
      out += entry.name;
      out += ' ';
      switch (entry.kind) {
        case EntryKind::kCounter: out += "counter"; break;
        case EntryKind::kGauge: out += "gauge"; break;
        case EntryKind::kHistogram: out += "histogram"; break;
        case EntryKind::kCallback:
          out += entry.callback_kind == CallbackKind::kCounter ? "counter"
                                                               : "gauge";
          break;
      }
      out += '\n';
    }
    switch (entry.kind) {
      case EntryKind::kCounter:
        append_series_name(out, entry.name, entry.labels);
        out += ' ';
        append_u64(out, entry.counter.value());
        out += '\n';
        break;
      case EntryKind::kGauge: {
        append_series_name(out, entry.name, entry.labels);
        out += ' ';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(entry.gauge.value()));
        out += buf;
        out += '\n';
        break;
      }
      case EntryKind::kCallback:
        append_series_name(out, entry.name, entry.labels);
        out += ' ';
        append_double(out, entry.callback ? entry.callback() : 0.0);
        out += '\n';
        break;
      case EntryKind::kHistogram: {
        // Fold the 512 fine log buckets into the coarse ladder: a log
        // bucket's count lands in the first ladder bound >= its upper
        // edge (a <=4% overestimate of `le`, same error as the
        // histogram's own quantiles).
        const Histogram& h = entry.histogram;
        std::uint64_t ladder_counts[kLadderSize] = {};
        std::uint64_t over = 0;
        for (size_t i = 0; i < Histogram::kBuckets; ++i) {
          std::uint64_t n = h.bucket_count(i);
          if (n == 0) continue;
          double upper = Histogram::bucket_upper_us(i);
          size_t slot = kLadderSize;
          for (size_t j = 0; j < kLadderSize; ++j) {
            if (upper <= kLadder[j]) {
              slot = j;
              break;
            }
          }
          if (slot == kLadderSize) {
            over += n;
          } else {
            ladder_counts[slot] += n;
          }
        }
        const double unit_scale =
            entry.unit == HistogramUnit::kMicroseconds ? 1e-6 : 1.0;
        std::uint64_t cumulative = 0;
        for (size_t j = 0; j < kLadderSize; ++j) {
          cumulative += ladder_counts[j];
          std::string bound = "le=\"";
          append_double(bound, kLadder[j] * unit_scale);
          bound += '"';
          append_series_name(out, entry.name, entry.labels, "_bucket",
                             bound);
          out += ' ';
          append_u64(out, cumulative);
          out += '\n';
        }
        append_series_name(out, entry.name, entry.labels, "_bucket",
                           "le=\"+Inf\"");
        out += ' ';
        append_u64(out, cumulative + over);
        out += '\n';
        // total_ns is record_us(x) summing x*1e3: native units = ns/1e3.
        append_series_name(out, entry.name, entry.labels, "_sum");
        out += ' ';
        append_double(out, static_cast<double>(h.total_ns()) / 1e3 *
                               unit_scale);
        out += '\n';
        append_series_name(out, entry.name, entry.labels, "_count");
        out += ' ';
        append_u64(out, h.count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

void bind_buffer_pool_metrics(MetricsRegistry& registry) {
  struct View {
    const char* name;
    const char* help;
    CallbackKind kind;
    std::uint64_t buffer_pool::Stats::*field;
  };
  static constexpr View kViews[] = {
      {"spi_buffer_pool_reused_total",
       "Envelope-sized buffer takes served from an idle buffer "
       "(process-wide)",
       CallbackKind::kCounter, &buffer_pool::Stats::reused},
      {"spi_buffer_pool_fresh_total",
       "Envelope-sized buffer takes that found no idle buffer and "
       "allocated (process-wide)",
       CallbackKind::kCounter, &buffer_pool::Stats::fresh},
      {"spi_buffer_pool_kept_total",
       "Envelope-sized buffers given back and kept idle (process-wide)",
       CallbackKind::kCounter, &buffer_pool::Stats::kept},
      {"spi_buffer_pool_freed_total",
       "Envelope-sized buffers given back and freed because the idle "
       "bound was reached (process-wide)",
       CallbackKind::kCounter, &buffer_pool::Stats::freed},
      {"spi_buffer_pool_idle_bytes",
       "Capacity of the buffers the pool holds idle (process-wide)",
       CallbackKind::kGauge, &buffer_pool::Stats::idle_bytes},
  };
  for (const View& view : kViews) {
    registry.add_callback(view.name, view.help, view.kind, {},
                          [field = view.field]() -> double {
                            return static_cast<double>(
                                buffer_pool::stats().*field);
                          });
  }
}

}  // namespace spi::telemetry
