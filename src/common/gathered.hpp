// Bytes that travel without being copied (DESIGN.md §8). A packed
// message's large payload strings already lie in memory that a shared
// owner keeps alive: the caller's batch, or the request body that a
// handler's result borrows. xml::Writer leaves such a string where it lies
// and records a splice instead of escaping it into the envelope; the
// reactor drivers then put the framing and the strings on the wire in one
// gathered send, and every other sink flattens them into one string.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spi {

/// Bytes that `owner` keeps alive: a spliced string, or one piece of a
/// message queued for the wire.
struct SharedBytes {
  std::shared_ptr<const std::string> owner;
  std::string_view bytes;
};

/// `value` goes into a document just before byte `offset` of its framing.
struct Splice {
  size_t offset = 0;
  SharedBytes value;
};

/// Bytes the splices carry.
size_t spliced_size(std::span<const Splice> splices);

/// Appends `framing` to `out` with each splice copied in at its offset:
/// the flat form of a gathered document.
void append_flat(std::string& out, std::string_view framing,
                 std::span<const Splice> splices);

/// A document written with its large clean strings left where they lie:
/// the framing holds every other byte, and each splice goes in at its
/// offset, in order. It converts to no string, so a splice cannot be
/// dropped by accident: a sink either sends the pieces as they lie
/// (wire_pieces) or pays one copy for a flat string (flatten).
class Gathered {
 public:
  Gathered() = default;
  /// A document with nothing spliced.
  explicit Gathered(std::string flat) : framing_(std::move(flat)) {}
  /// `splices` in ascending offset order, each offset within `framing`.
  Gathered(std::string framing, std::vector<Splice> splices);

  /// Every byte of the document: the framing plus the splices.
  size_t size() const { return framing_.size() + spliced_bytes_; }
  bool empty() const { return size() == 0; }
  /// Bytes left where they lie (0 when nothing is spliced).
  size_t spliced_bytes() const { return spliced_bytes_; }
  const std::string& framing() const { return framing_; }
  const std::vector<Splice>& splices() const { return splices_; }

  /// The document as one string: the framing itself when nothing is
  /// spliced, else a buffer from the buffer pool with each splice copied
  /// in.
  std::string flatten() &&;

  /// A message as shared pieces in wire order, none empty: `head`, then
  /// the framing cut at each splice and the splices themselves. The head
  /// and the framing share one owner (one allocation), which gives both
  /// to the buffer pool when the last piece lets go.
  std::vector<SharedBytes> wire_pieces(std::string head) &&;

  /// Moves the framing and the splices out, for a message that carries
  /// them (http::Request::set_body).
  void release(std::string& framing, std::vector<Splice>& splices) &&;

 private:
  std::string framing_;
  std::vector<Splice> splices_;
  size_t spliced_bytes_ = 0;
};

}  // namespace spi
