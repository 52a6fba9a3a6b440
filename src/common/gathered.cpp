#include "common/gathered.hpp"

#include "common/buffer_pool.hpp"

namespace spi {

namespace {

/// A message's head and its body's framing behind one owner, which gives
/// both to the buffer pool when the last piece sharing them lets go.
struct SharedFraming {
  std::string head;
  std::string framing;

  SharedFraming(std::string head_bytes, std::string framing_bytes)
      : head(std::move(head_bytes)), framing(std::move(framing_bytes)) {}
  ~SharedFraming() {
    buffer_pool::give(std::move(head));
    buffer_pool::give(std::move(framing));
  }
  SharedFraming(const SharedFraming&) = delete;
  SharedFraming& operator=(const SharedFraming&) = delete;
};

}  // namespace

size_t spliced_size(std::span<const Splice> splices) {
  size_t bytes = 0;
  for (const Splice& splice : splices) bytes += splice.value.bytes.size();
  return bytes;
}

void append_flat(std::string& out, std::string_view framing,
                 std::span<const Splice> splices) {
  size_t at = 0;
  for (const Splice& splice : splices) {
    out.append(framing.substr(at, splice.offset - at));
    out.append(splice.value.bytes);
    at = splice.offset;
  }
  out.append(framing.substr(at));
}

Gathered::Gathered(std::string framing, std::vector<Splice> splices)
    : framing_(std::move(framing)),
      splices_(std::move(splices)),
      spliced_bytes_(spliced_size(splices_)) {}

std::string Gathered::flatten() && {
  if (splices_.empty()) return std::move(framing_);
  std::string out = buffer_pool::take(size());
  append_flat(out, framing_, splices_);
  return out;
}

std::vector<SharedBytes> Gathered::wire_pieces(std::string head) && {
  std::vector<SharedBytes> pieces;
  pieces.reserve(2 + 2 * splices_.size());
  auto owner =
      std::make_shared<SharedFraming>(std::move(head), std::move(framing_));
  if (!owner->head.empty()) {
    pieces.push_back({{owner, &owner->head}, owner->head});
  }
  const std::string_view text = owner->framing;
  const std::shared_ptr<const std::string> framing(owner, &owner->framing);
  size_t at = 0;
  for (Splice& splice : splices_) {
    if (splice.offset > at) {
      pieces.push_back({framing, text.substr(at, splice.offset - at)});
    }
    pieces.push_back(std::move(splice.value));
    at = splice.offset;
  }
  if (at < text.size()) pieces.push_back({framing, text.substr(at)});
  return pieces;
}

void Gathered::release(std::string& framing,
                       std::vector<Splice>& splices) && {
  framing = std::move(framing_);
  splices = std::move(splices_);
}

}  // namespace spi
