#include "telemetry/trace.hpp"

#include <atomic>
#include <chrono>

#include "common/random.hpp"

namespace spi::telemetry {

namespace {

thread_local const TraceContext* g_current_trace = nullptr;

/// Per-thread id generator. Seeded from a process-wide counter mixed with
/// the clock so concurrent threads and repeated runs diverge; splitmix64
/// output is then hex-formatted. Not cryptographic — trace ids only need
/// to be unique enough to correlate logs.
SplitMix64& thread_rng() {
  static std::atomic<std::uint64_t> salt{0x5eedu};
  thread_local SplitMix64 rng(
      salt.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed) ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()));
  return rng;
}

bool is_hex(std::string_view s) {
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
          (c >= 'A' && c <= 'F'))) {
      return false;
    }
  }
  return !s.empty();
}

}  // namespace

TraceContext TraceContext::generate() {
  SplitMix64& rng = thread_rng();
  TraceContext context;
  context.trace_id = rng.hex_string(16);
  context.parent_id = rng.hex_string(8);
  return context;
}

TraceContext TraceContext::child() const {
  TraceContext context;
  context.trace_id = trace_id;
  context.parent_id = thread_rng().hex_string(8);
  return context;
}

std::string TraceContext::to_header_block() const {
  std::string block;
  block.reserve(96 + trace_id.size() + parent_id.size());
  block += "<spi:Trace><spi:TraceId>";
  block += trace_id;
  block += "</spi:TraceId><spi:ParentId>";
  block += parent_id;
  block += "</spi:ParentId></spi:Trace>";
  return block;
}

std::optional<TraceContext> TraceContext::from_header_block(
    const xml::Element& block) {
  if (block.local_name() != "Trace") return std::nullopt;
  const xml::Element* trace_id = block.first_child("TraceId");
  if (!trace_id) return std::nullopt;
  const xml::Element* parent = block.first_child("ParentId");
  return from_ids(trace_id->text_trimmed(),
                  parent ? parent->text_trimmed() : std::string_view());
}

std::optional<TraceContext> TraceContext::from_ids(
    std::string_view trace_id, std::string_view parent_id) {
  if (!is_hex(trace_id)) return std::nullopt;
  TraceContext context;
  context.trace_id = std::string(trace_id);
  if (is_hex(parent_id)) context.parent_id = std::string(parent_id);
  return context;
}

std::optional<TraceContext> TraceContext::from_header_blocks(
    const std::vector<const xml::Element*>& blocks) {
  for (const xml::Element* block : blocks) {
    if (auto context = from_header_block(*block)) return context;
  }
  return std::nullopt;
}

const TraceContext* current_trace() { return g_current_trace; }

TraceScope::TraceScope(const TraceContext& context)
    : previous_(g_current_trace) {
  g_current_trace = &context;
}

TraceScope::~TraceScope() { g_current_trace = previous_; }

}  // namespace spi::telemetry
