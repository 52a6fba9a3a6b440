#include "common/buffer_pool.hpp"

#include <algorithm>
#include <mutex>
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

}  // namespace

std::string take(size_t capacity) {
  std::string buffer;
  if (capacity >= kFloorBytes) {
    Pool& p = pool();
    std::lock_guard lock(p.mutex);
    auto best = p.idle.end();
    for (auto it = p.idle.begin(); it != p.idle.end(); ++it) {
      if (it->capacity() >= capacity &&
          (best == p.idle.end() || it->capacity() < best->capacity())) {
        best = it;
      }
    }
    if (best != p.idle.end()) {
      if (best != p.idle.end() - 1) std::iter_swap(best, p.idle.end() - 1);
      buffer = std::move(p.idle.back());
      p.idle.pop_back();
      p.stats.idle_bytes -= buffer.capacity();
      ++p.stats.reused;
      return buffer;
    }
    ++p.stats.fresh;
  }
  buffer.reserve(capacity);
  return buffer;
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
  released.clear();
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
