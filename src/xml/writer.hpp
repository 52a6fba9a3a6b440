// Streaming XML writer. Serialization (client Assembler, server response
// Assembler) appends into one growing string; no intermediate tree is built,
// which keeps the pack path to a single pass over the payload (Per.14).
// A large string that needs no escape is not copied at all: shared_text()
// records it as a splice (common/gathered.hpp), and take_gathered() hands
// the framing and the splices out for a gathered send.
// Reusable: take() hands the output buffer out with each document and
// reset() keeps the tag-stack capacity; reserve() on an empty Writer takes
// its next buffer from the process's buffer pool (common/buffer_pool.hpp),
// so an envelope-sized buffer written out earlier is filled again.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/gathered.hpp"

namespace spi::xml {

/// Strings at least this long that need no escape are spliced by
/// shared_text() instead of copied. A splice costs a gather segment and a
/// reference taken and dropped across threads, tens of nanoseconds; a
/// 16 KiB copy costs about a microsecond. Values of 1 KB and less, the
/// small-payload workloads, stay copied, so their messages stay one
/// segment.
inline constexpr size_t kSpliceFloorBytes = 16 * 1024;

/// A document's size estimate, for Writer::reserve(): a hint, not a bound.
struct Reservation {
  /// Bytes written into the output buffer: markup and copied payload.
  size_t copied = 0;
  /// Bytes of strings at kSpliceFloorBytes, which shared_text() splices
  /// unless they need an escape.
  size_t spliceable = 0;
};

class Writer {
 public:
  /// `pretty` inserts newlines + two-space indentation (examples/docs);
  /// benchmarks use compact output like real SOAP stacks.
  /// `capacity_hint` sizes the output buffer up front — callers that can
  /// estimate the serialized size (Assembler::pack) avoid regrowth.
  explicit Writer(bool pretty = false, size_t capacity_hint = 256)
      : pretty_(pretty) {
    out_.reserve(capacity_hint);
  }

  /// Writes the <?xml version="1.0" encoding="UTF-8"?> declaration.
  /// Must precede the first element.
  Writer& declaration();

  /// Opens <name>. Throws SpiError(kInvalidArgument) on an invalid name.
  Writer& start_element(std::string_view name);

  /// Adds an attribute to the most recently opened element. Must be called
  /// before any content is written into it.
  Writer& attribute(std::string_view name, std::string_view value);

  /// Adds an attribute whose value is already escaped, quoted with
  /// `quote` (' or "): an attribute copied from a received document keeps
  /// its bytes and its quoting.
  Writer& raw_attribute(std::string_view name, std::string_view escaped_value,
                        char quote = '"');

  /// Writes escaped character data inside the current element.
  Writer& text(std::string_view text);

  /// text() for bytes that `owner` keeps alive (`text` lies inside
  /// *owner): when `text` is at least kSpliceFloorBytes long and needs no
  /// escape, it is recorded as a splice at the current offset instead of
  /// copied. Otherwise it is written as text() writes it.
  Writer& shared_text(std::string_view text,
                      const std::shared_ptr<const std::string>& owner);

  /// Writes pre-escaped/verbatim bytes (nested pre-serialized fragments —
  /// this is how the Assembler splices per-call XML into Parallel_Method).
  Writer& raw(std::string_view xml);

  /// Writes a CDATA section. Content containing "]]>" is split across
  /// adjacent sections so any byte sequence is representable.
  Writer& cdata(std::string_view text);

  /// Closes the current element, collapsing empty ones to <name/>.
  Writer& end_element();

  /// <name>text</name> in one call.
  Writer& text_element(std::string_view name, std::string_view text);

  /// Closes all open elements.
  Writer& finish();

  /// True once every start_element has been matched.
  bool complete() const { return open_elements_.empty(); }

  size_t depth() const { return open_elements_.size(); }

  /// Closes any elements still open (finish()) and moves the document out,
  /// with any splices copied in. Surrenders the output buffer; a Writer
  /// reused after reset() keeps only its tag-stack capacity.
  std::string take() { return take_gathered().flatten(); }

  /// take() with the splices left where they lie: the output buffer is
  /// the framing (the Assembler hands each envelope out this way).
  Gathered take_gathered();

  /// Clears all state for the next document, retaining the capacity of
  /// the tag stack and of an output buffer not yet taken.
  Writer& reset() {
    out_.clear();
    splices_.clear();
    spliceable_ = 0;
    open_elements_.clear();
    start_tag_open_ = false;
    element_has_text_ = false;
    return *this;
  }

  /// Grows the output buffer to hold `bytes.copied`, taking it from
  /// buffer_pool::take(). The spliceable bytes get no room: when one such
  /// string must be copied after all (it needs an escape, or has no
  /// owner), the buffer grows once by every spliceable byte still to
  /// come, instead of doubling its way there.
  Writer& reserve(Reservation bytes);

 private:
  /// Open tags are remembered as (offset, length) of the name already
  /// written into out_ — no per-element string copy, and offsets survive
  /// buffer reallocation.
  struct OpenTag {
    size_t name_offset;
    size_t name_length;
  };

  void close_start_tag();
  void indent();
  /// Moves the output to a buffer from the pool with at least `capacity`
  /// bytes, giving the old one back; nothing when it already fits.
  void grow(size_t capacity);

  std::string out_;
  std::vector<Splice> splices_;
  /// Spliceable bytes of the reservation not yet written (reserve()).
  size_t spliceable_ = 0;
  std::vector<OpenTag> open_elements_;
  bool pretty_;
  bool start_tag_open_ = false;   // "<name" emitted, '>' pending
  bool element_has_text_ = false; // suppress pretty newline before </name>
};

}  // namespace spi::xml
