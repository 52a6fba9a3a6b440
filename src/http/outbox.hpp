// The outbound bytes of one reactor-driven connection (DESIGN.md §12): a
// chain of shared segments written with one try_sendv loop. Both reactor
// drivers — the server's ReactorConn and the async client's connections —
// write through it. A segment's owner (a pooled envelope, a caller's
// Value, a request body that a reply shares) lives until the segment's
// last byte is written. A transport that cannot gather still works: the
// base Connection::try_sendv sends the first segment through try_send.
// Loop-thread only.
#pragma once

#include <deque>

#include "common/gathered.hpp"
#include "net/transport.hpp"

namespace spi::http {

class Outbox {
 public:
  /// What one flush() wrote, for the caller's telemetry.
  struct Progress {
    size_t bytes = 0;    ///< bytes the connection accepted
    size_t writes = 0;   ///< try_sendv calls that accepted bytes
    size_t retired = 0;  ///< segments written whole, their owners let go
  };

  /// Queues `segment` behind everything queued; an empty one is dropped.
  void push(SharedBytes segment);

  /// Writes until the outbox is empty or `connection` would block. Any
  /// other error stops the flush and is returned; `progress` still counts
  /// what was written before it.
  Status flush(net::Connection& connection, Progress& progress);

  bool empty() const { return segments_.empty(); }
  size_t segments() const { return segments_.size(); }

  /// True when no byte of the front segment has been written.
  bool front_untouched() const { return offset_ == 0; }

  /// Drops the last `n` segments unwritten; their owners let go.
  void drop_back(size_t n);

 private:
  std::deque<SharedBytes> segments_;
  size_t offset_ = 0;  // bytes of segments_.front() already written
};

}  // namespace spi::http
