#include "common/buffer_pool.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace spi::buffer_pool {

namespace {

struct Pool {
  /// Room for every buffer the bound admits, so give() never allocates.
  Pool() { idle.reserve(kIdleBoundBytes / kFloorBytes); }

  std::mutex mutex;
  std::vector<std::string> idle;  // guarded by mutex
  Stats stats;                    // guarded by mutex
};

/// Leaked on purpose: static and thread-local objects destroyed after
/// main() (a thread_local Writer, a static kept Value) may still give.
Pool& pool() {
  static Pool* instance = new Pool;
  return *instance;
}

/// The smallest idle buffer with capacity() >= `capacity`, as it was
/// given (its length kept); nullopt when none fits, counted as fresh at
/// or above kFloorBytes.
std::optional<std::string> take_idle(size_t capacity) {
  if (capacity < kFloorBytes) return std::nullopt;
  Pool& p = pool();
  std::lock_guard lock(p.mutex);
  auto best = p.idle.end();
  for (auto it = p.idle.begin(); it != p.idle.end(); ++it) {
    if (it->capacity() >= capacity &&
        (best == p.idle.end() || it->capacity() < best->capacity())) {
      best = it;
    }
  }
  if (best == p.idle.end()) {
    ++p.stats.fresh;
    return std::nullopt;
  }
  if (best != p.idle.end() - 1) std::iter_swap(best, p.idle.end() - 1);
  std::string buffer = std::move(p.idle.back());
  p.idle.pop_back();
  p.stats.idle_bytes -= buffer.capacity();
  ++p.stats.reused;
  return buffer;
}

std::string reserved(size_t capacity) {
  std::string buffer;
  buffer.reserve(capacity);
  return buffer;
}

/// Gives its buffer back when the last shared reference lets go.
struct SharedBuffer {
  std::string text;

  explicit SharedBuffer(std::string buffer) : text(std::move(buffer)) {}
  ~SharedBuffer() { give(std::move(text)); }
  SharedBuffer(const SharedBuffer&) = delete;
  SharedBuffer& operator=(const SharedBuffer&) = delete;
};

}  // namespace

std::string take(size_t capacity) {
  std::optional<std::string> idle = take_idle(capacity);
  if (!idle) return reserved(capacity);
  idle->clear();
  return std::move(*idle);
}

std::string take_for_overwrite(size_t size) {
  std::optional<std::string> idle = take_idle(size);
  if (!idle) return reserved(size);
  // Cutting keeps the bytes; growing zero-fills only past the old length.
  idle->resize(size);
  return std::move(*idle);
}

std::shared_ptr<const std::string> share(std::string buffer) {
  auto owner = std::make_shared<SharedBuffer>(std::move(buffer));
  const std::string* text = &owner->text;
  return std::shared_ptr<const std::string>(std::move(owner), text);
}

void give(std::string&& buffer) noexcept {
  // Declared before the lock, so a refused buffer is freed after unlock.
  std::string released = std::move(buffer);
  const size_t capacity = released.capacity();
  if (capacity < kFloorBytes) return;
  Pool& p = pool();
  std::lock_guard lock(p.mutex);
  if (p.stats.idle_bytes + capacity > kIdleBoundBytes) {
    ++p.stats.freed;
    return;
  }
  // The length stays: take_for_overwrite() need not fill what it covers.
  p.idle.push_back(std::move(released));
  p.stats.idle_bytes += capacity;
  ++p.stats.kept;
}

Stats stats() {
  Pool& p = pool();
  std::lock_guard lock(p.mutex);
  return p.stats;
}

}  // namespace spi::buffer_pool
