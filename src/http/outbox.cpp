#include "http/outbox.hpp"

namespace spi::http {

namespace {
/// Segments gathered per try_sendv call (the transport's own cap; a deeper
/// outbox just takes another gather).
constexpr size_t kGatherWidth = 64;
}  // namespace

void Outbox::push(SharedBytes segment) {
  if (!segment.bytes.empty()) segments_.push_back(std::move(segment));
}

Status Outbox::flush(net::Connection& connection, Progress& progress) {
  while (!segments_.empty()) {
    net::ConstBuffer gather[kGatherWidth];
    size_t count = 0;
    size_t offset = offset_;
    for (const SharedBytes& segment : segments_) {
      if (count == kGatherWidth) break;
      gather[count++] = {segment.bytes.data() + offset,
                         segment.bytes.size() - offset};
      offset = 0;
    }
    auto sent = connection.try_sendv(gather, count);
    if (!sent.ok()) {
      if (sent.error().code() == ErrorCode::kWouldBlock) return Status();
      return sent.error();
    }
    size_t n = sent.value();
    if (n == 0) return Status();  // nothing accepted: wait for writability
    progress.bytes += n;
    ++progress.writes;
    // Advance the cursor in place across a write that may end short, even
    // mid-segment.
    while (n > 0) {
      const size_t remaining = segments_.front().bytes.size() - offset_;
      if (n < remaining) {
        offset_ += n;
        break;
      }
      n -= remaining;
      offset_ = 0;
      segments_.pop_front();  // its owner lets go
      ++progress.retired;
    }
  }
  return Status();
}

void Outbox::drop_back(size_t n) {
  segments_.erase(segments_.end() - static_cast<std::ptrdiff_t>(n),
                  segments_.end());
  if (segments_.empty()) offset_ = 0;
}

}  // namespace spi::http
