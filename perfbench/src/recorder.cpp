#include "recorder.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

// "perfbenc" in hex: marks ids this recorder minted.
constexpr std::string_view kTracePrefix = "7065726662656e63";

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void store_min(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while ((seen == 0 || value < seen) &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void store_max(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

class StampHandler final : public spi::core::Handler {
 public:
  explicit StampHandler(TraceRecorder& recorder) : recorder_(recorder) {}

  std::string_view name() const override { return "perfbench-recorder"; }

  spi::Status on_request(const spi::core::HandlerContext& context) override {
    if (auto message = message_in(context)) {
      recorder_.on_server_request(*message);
    }
    return spi::Status();
  }
  void on_response(const spi::core::HandlerContext& context) override {
    if (auto message = message_in(context)) {
      recorder_.on_server_response(*message);
    }
  }

 private:
  static std::optional<std::uint64_t> message_in(
      const spi::core::HandlerContext& context) {
    if (context.request == nullptr) return std::nullopt;
    return TraceRecorder::message_of(context.request->trace.trace_id);
  }

  TraceRecorder& recorder_;
};

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity)
    : origin_ns_(steady_ns()),
      submit_ns_(capacity),
      request_ns_(capacity),
      response_ns_(capacity),
      complete_ns_(capacity) {}

spi::telemetry::TraceContext TraceRecorder::trace_for(std::uint64_t message) {
  spi::telemetry::TraceContext context;
  context.trace_id = std::string(kTracePrefix) + hex16(message);
  context.parent_id = hex16(message);
  return context;
}

std::optional<std::uint64_t> TraceRecorder::message_of(
    std::string_view trace_id) {
  if (trace_id.size() != 2 * kTracePrefix.size() ||
      trace_id.substr(0, kTracePrefix.size()) != kTracePrefix) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (char c : trace_id.substr(kTracePrefix.size())) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    if (digit < 0) return std::nullopt;
    value = value * 16 + static_cast<std::uint64_t>(digit);
  }
  return value;
}

std::int64_t TraceRecorder::now_ns() const {
  return steady_ns() - origin_ns_ + 1;
}

void TraceRecorder::on_submit(std::uint64_t message) {
  if (message < capacity()) {
    submit_ns_[message].store(now_ns(), std::memory_order_relaxed);
  }
}

void TraceRecorder::on_complete(std::uint64_t message) {
  if (message < capacity()) {
    complete_ns_[message].store(now_ns(), std::memory_order_relaxed);
  }
}

void TraceRecorder::on_server_request(std::uint64_t message) {
  if (message < capacity()) store_min(request_ns_[message], now_ns());
}

void TraceRecorder::on_server_response(std::uint64_t message) {
  if (message < capacity()) store_max(response_ns_[message], now_ns());
}

std::shared_ptr<spi::core::Handler> TraceRecorder::make_handler(
    TraceRecorder& recorder) {
  return std::make_shared<StampHandler>(recorder);
}

TraceRecorder::Means TraceRecorder::means(std::uint64_t first) const {
  Means out;
  double exchange = 0, pre = 0, post = 0;
  for (size_t i = first; i < capacity(); ++i) {
    const std::int64_t submit = submit_ns_[i].load(std::memory_order_relaxed);
    const std::int64_t request = request_ns_[i].load(std::memory_order_relaxed);
    const std::int64_t response =
        response_ns_[i].load(std::memory_order_relaxed);
    const std::int64_t complete =
        complete_ns_[i].load(std::memory_order_relaxed);
    if (submit == 0 || request == 0 || response == 0 || complete == 0) {
      continue;
    }
    ++out.messages;
    exchange += static_cast<double>(complete - submit);
    pre += static_cast<double>(request - submit);
    post += static_cast<double>(complete - response);
  }
  if (out.messages > 0) {
    const double n = static_cast<double>(out.messages) * 1e3;  // ns -> us
    out.exchange_us = exchange / n;
    out.pre_execute_us = pre / n;
    out.post_execute_us = post / n;
  }
  return out;
}

size_t TraceRecorder::write_spans(const std::string& path,
                                  size_t max_messages) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return 0;
  size_t written = 0;
  size_t messages = 0;
  for (size_t i = 0; i < capacity() && messages < max_messages; ++i) {
    const std::int64_t submit = submit_ns_[i].load(std::memory_order_relaxed);
    const std::int64_t request = request_ns_[i].load(std::memory_order_relaxed);
    const std::int64_t response =
        response_ns_[i].load(std::memory_order_relaxed);
    const std::int64_t complete =
        complete_ns_[i].load(std::memory_order_relaxed);
    if (submit == 0 || request == 0 || response == 0 || complete == 0) {
      continue;
    }
    ++messages;
    const std::string trace = trace_for(i).trace_id;
    const std::uint64_t root = 4 * i + 1;
    struct Span {
      const char* name;
      std::uint64_t id;
      std::uint64_t parent;
      std::int64_t start;
      std::int64_t end;
    };
    const Span spans[] = {
        {"client.exchange", root, 0, submit, complete},
        {"client.pre_execute", root + 1, root, submit, request},
        {"server.execute_phase", root + 2, root, request, response},
        {"client.post_execute", root + 3, root, response, complete},
    };
    for (const Span& span : spans) {
      std::fprintf(file,
                   "{\"trace\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                   "\"parent\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   trace.c_str(), span.name,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<double>(span.start - 1) / 1e3,
                   static_cast<double>(span.end - 1) / 1e3);
      ++written;
    }
  }
  std::fclose(file);
  return written;
}

}  // namespace perfbench
