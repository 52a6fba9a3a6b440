#include "common/arena.hpp"

#include <algorithm>
#include <cstring>

namespace spi {

MonotonicArena::MonotonicArena(size_t first_chunk_bytes) {
  next_chunk_bytes_ = std::max<size_t>(first_chunk_bytes, 1);
}

void MonotonicArena::ensure(size_t bytes) {
  if (!chunks_.empty() &&
      chunks_.back().capacity - used_in_current_ >= bytes) {
    return;
  }
  size_t capacity = std::max(bytes, next_chunk_bytes_);
  // For-overwrite: every byte handed out is written before it is read, so
  // value-initializing the chunk would only add a zero-fill pass (and
  // fault in every page of a large chunk up front).
  chunks_.push_back(
      Chunk{std::make_unique_for_overwrite<char[]>(capacity), capacity});
  used_in_current_ = 0;
  next_chunk_bytes_ = std::min(next_chunk_bytes_ * 2, kMaxChunkBytes);
}

char* MonotonicArena::allocate(size_t bytes) {
  ensure(bytes);
  char* out = chunks_.back().data.get() + used_in_current_;
  used_in_current_ += bytes;
  total_used_ += bytes;
  return out;
}

std::string_view MonotonicArena::intern(std::string_view text) {
  if (text.empty()) return std::string_view();
  char* out = allocate(text.size());
  std::memcpy(out, text.data(), text.size());
  return std::string_view(out, text.size());
}

char* MonotonicArena::begin_write(size_t max_bytes) {
  ensure(max_bytes);
  return chunks_.back().data.get() + used_in_current_;
}

std::string_view MonotonicArena::commit_write(size_t used_bytes) {
  char* start = chunks_.back().data.get() + used_in_current_;
  used_in_current_ += used_bytes;
  total_used_ += used_bytes;
  return std::string_view(start, used_bytes);
}

void MonotonicArena::reset() {
  if (chunks_.empty()) {
    total_used_ = 0;
    used_in_current_ = 0;
    return;
  }
  auto largest = std::max_element(
      chunks_.begin(), chunks_.end(),
      [](const Chunk& a, const Chunk& b) { return a.capacity < b.capacity; });
  Chunk kept = std::move(*largest);
  chunks_.clear();
  chunks_.push_back(std::move(kept));
  used_in_current_ = 0;
  total_used_ = 0;
}

size_t MonotonicArena::bytes_reserved() const {
  size_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.capacity;
  return total;
}

}  // namespace spi
