#include "resilience/deadline.hpp"

#include <chrono>

#include "common/string_util.hpp"

namespace spi::resilience {

namespace {

thread_local const Deadline* g_current_deadline = nullptr;

constexpr std::string_view kBlockOpen = "<spi:Deadline>";
constexpr std::string_view kUsOpen = "<spi:RemainingUs>";
constexpr std::string_view kUsClose = "</spi:RemainingUs>";

/// Budget values the wire accepts: anything above this is treated as
/// malformed rather than scheduling work for the year 2200.
constexpr std::int64_t kMaxWireBudgetUs = 365LL * 24 * 3600 * 1000000LL;

}  // namespace

std::optional<Deadline> Deadline::from_remaining_us(std::string_view text,
                                                    TimePoint now) {
  text = trim(text);
  bool negative = false;
  if (!text.empty() && text.front() == '-') {
    negative = true;
    text.remove_prefix(1);
  }
  auto value = parse_u64(text);
  if (!value || *value > static_cast<std::uint64_t>(kMaxWireBudgetUs)) {
    return std::nullopt;
  }
  auto magnitude = std::chrono::microseconds(static_cast<std::int64_t>(*value));
  return Deadline::at(negative ? now - magnitude : now + magnitude);
}

Duration Deadline::remaining_or_unbounded(TimePoint now) const {
  if (!has_deadline_) return Duration::zero();  // kNoTimeout: unbounded
  Duration left = at_ - now;
  // Expired: the smallest positive bound, so set_receive_timeout sites
  // fail fast rather than interpreting <= 0 as "forever".
  return left > Duration::zero() ? left : Duration(1);
}

std::string Deadline::to_header_block(TimePoint now) const {
  if (!has_deadline_) return {};
  auto remaining_us =
      std::chrono::duration_cast<std::chrono::microseconds>(at_ - now)
          .count();
  if (remaining_us < -1'000'000) return {};
  std::string block;
  block.reserve(64);
  block += kBlockOpen;
  block += kUsOpen;
  if (remaining_us < 0) {
    block += '-';
    append_u64(block, static_cast<std::uint64_t>(-remaining_us));
  } else {
    append_u64(block, static_cast<std::uint64_t>(remaining_us));
  }
  block += kUsClose;
  block += "</spi:Deadline>";
  return block;
}

std::optional<Deadline> Deadline::from_header_block(const xml::Element& block,
                                                    TimePoint now) {
  if (block.local_name() != "Deadline") return std::nullopt;
  const xml::Element* remaining = block.first_child("RemainingUs");
  if (!remaining) return std::nullopt;
  return from_remaining_us(remaining->text_trimmed(), now);
}

std::optional<Deadline> Deadline::from_header_blocks(
    const std::vector<const xml::Element*>& blocks, TimePoint now) {
  for (const xml::Element* block : blocks) {
    if (auto deadline = from_header_block(*block, now)) return deadline;
  }
  return std::nullopt;
}

std::optional<Deadline> Deadline::scan(std::string_view envelope_xml,
                                       TimePoint now) {
  // The header precedes the body, so the fragment sits in the first couple
  // hundred bytes of any envelope the Assembler produced; bound the scan
  // so a 100 KB payload never pays a full-document search.
  constexpr size_t kScanWindow = 4096;
  std::string_view window = envelope_xml.substr(
      0, envelope_xml.size() < kScanWindow ? envelope_xml.size()
                                           : kScanWindow);
  size_t open = window.find(kBlockOpen);
  if (open == std::string_view::npos) return std::nullopt;
  size_t us_open = window.find(kUsOpen, open);
  if (us_open == std::string_view::npos) return std::nullopt;
  size_t value_begin = us_open + kUsOpen.size();
  size_t us_close = window.find(kUsClose, value_begin);
  if (us_close == std::string_view::npos) return std::nullopt;
  return from_remaining_us(window.substr(value_begin, us_close - value_begin),
                           now);
}

const Deadline* current_deadline() { return g_current_deadline; }

DeadlineScope::DeadlineScope(const Deadline& deadline)
    : previous_(g_current_deadline) {
  g_current_deadline = &deadline;
}

DeadlineScope::~DeadlineScope() { g_current_deadline = previous_; }

}  // namespace spi::resilience
