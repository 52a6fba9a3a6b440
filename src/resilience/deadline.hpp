// Per-exchange deadline propagation (DESIGN.md §10). A client that gives a
// packed message 250 ms installs an absolute Deadline; every layer below
// derives from it instead of keeping its own unrelated timer:
//
//   * the Assembler serializes it as an <spi:Deadline> SOAP header block
//     (sibling of <spi:Trace>), carrying the REMAINING budget — relative
//     microseconds, because the two hosts' steady clocks are not
//     comparable:
//
//       <spi:Deadline><spi:RemainingUs>250000</spi:RemainingUs></spi:Deadline>
//
//   * the HTTP client clamps each attempt's receive timeout to the
//     remaining budget (common/timeout.hpp composition rule);
//   * the server re-anchors the budget against its own clock at arrival
//     and sheds work whose deadline already passed at each SEDA stage
//     boundary — before envelope parse (scan()) and again before each
//     call executes — answering a DeadlineExceeded fault instead of
//     burning parse/execute time on an answer nobody is waiting for.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "xml/parser.hpp"

namespace spi::resilience {

class Deadline {
 public:
  /// No deadline: never expires, serializes to nothing.
  Deadline() = default;

  /// Absolute deadline `budget` from now. A non-positive budget yields an
  /// already-expired deadline (the wire can carry one: a message that
  /// spent its budget queueing).
  static Deadline after(Duration budget,
                        const Clock& clock = RealClock::instance()) {
    return Deadline(clock.now() + budget);
  }
  static Deadline at(TimePoint when) { return Deadline(when); }
  static Deadline never() { return Deadline(); }

  /// False for never(): callers treat an invalid deadline as "unbounded".
  bool valid() const { return has_deadline_; }

  /// Remaining budget (negative once expired). Zero when invalid —
  /// combine with valid() or use remaining_or_unbounded().
  Duration remaining(TimePoint now) const {
    return has_deadline_ ? at_ - now : Duration::zero();
  }

  /// Remaining budget as a timeout: kNoTimeout (unbounded) when invalid.
  /// An expired deadline yields the smallest positive bound so timeout
  /// sites fail fast instead of reading "expired" as "infinite".
  Duration remaining_or_unbounded(TimePoint now) const;

  bool expired(TimePoint now) const { return has_deadline_ && now >= at_; }

  /// Serializes the remaining budget as a header-block fragment (shape
  /// above). Empty string when invalid or already expired by >1 s (no
  /// point shipping a dead message a dead header).
  std::string to_header_block(TimePoint now) const;

  /// Recognizes an <spi:Deadline> header element and re-anchors the
  /// carried remaining budget against `now`; nullopt otherwise.
  static std::optional<Deadline> from_header_block(const xml::Element& block,
                                                   TimePoint now);

  /// The deadline a spi:RemainingUs text (signed microseconds) carries,
  /// anchored at `now`; nullopt when the text is malformed or out of
  /// range. Shared by every reader of the header.
  static std::optional<Deadline> from_remaining_us(std::string_view text,
                                                   TimePoint now);

  /// First spi:Deadline among an envelope's header blocks, if any.
  static std::optional<Deadline> from_header_blocks(
      const std::vector<const xml::Element*>& blocks, TimePoint now);

  /// Cheap pre-parse scan: finds the <spi:Deadline> fragment in a raw
  /// envelope document WITHOUT building a DOM, so the server can shed an
  /// already-dead message before paying the parse stage for it (and so
  /// the streaming parser, which skips headers, still sees deadlines).
  /// Returns nullopt when no well-formed fragment is present.
  static std::optional<Deadline> scan(std::string_view envelope_xml,
                                      TimePoint now);

 private:
  explicit Deadline(TimePoint at) : at_(at), has_deadline_(true) {}

  TimePoint at_{};
  bool has_deadline_ = false;
};

/// The calling thread's active deadline, or nullptr. The Assembler
/// consults this when finishing an envelope, exactly like current_trace().
const Deadline* current_deadline();

/// RAII: installs `deadline` as the thread's current deadline, restoring
/// the previous one on destruction (scopes nest).
class DeadlineScope {
 public:
  explicit DeadlineScope(const Deadline& deadline);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  const Deadline* previous_;
};

}  // namespace spi::resilience
