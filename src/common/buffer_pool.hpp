// Process-wide pool of idle envelope-sized string buffers (DESIGN.md §8).
// A packed message of 16 x 100 KB lives in two 1.6 MB buffers, the
// server's request body and the client's response body; its envelopes
// splice the strings instead of copying them, and an envelope whose
// strings are copied is a third. Fresh from malloc, each is served from
// newly mapped pages, and the first touch of every page is a minor fault.
// Where such a buffer dies (a written outbox segment, the last reference
// to a parsed source) it is given here, and where the next one is born
// (the Assembler's envelope, a Content-Length body) it is taken back, so
// steady traffic faults in no new pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace spi::buffer_pool {

/// Buffers with less capacity are neither kept nor looked up. This is
/// glibc's default mmap threshold: below it malloc serves and recycles
/// arena chunks without mapping new pages, so the pool would save nothing.
inline constexpr size_t kFloorBytes = 128 * 1024;

/// The idle buffers' capacities never sum above this. Four 1.6 MB buffers
/// per message with a few messages in flight stay well inside it; a give
/// that would cross it frees its buffer instead.
inline constexpr size_t kIdleBoundBytes = 16 * 1024 * 1024;

/// An empty string with capacity() >= `capacity`: the smallest idle
/// buffer that fits, or a fresh reservation. Below kFloorBytes it is
/// always fresh and takes no lock.
std::string take(size_t capacity);

/// For a caller that writes `size` bytes into the result (a receive
/// straight into a Content-Length body). An idle buffer that fits comes
/// back at exactly `size` bytes, its pages already resident and its
/// contents unspecified: it kept the length it was given back with, so
/// only bytes past that length are zero-filled. With none idle the
/// result is what take() returns, an empty string with that capacity,
/// for the caller to grow as bytes arrive: fresh memory is touched no
/// faster than it is filled.
std::string take_for_overwrite(size_t size);

/// Keeps `buffer`'s storage for a later take() when its capacity is at
/// least kFloorBytes and the idle bytes stay within kIdleBoundBytes;
/// otherwise frees it, outside the pool's lock. `buffer` is left empty
/// either way. Safe from any thread, also after main() returns, and from
/// destructors: it never throws.
void give(std::string&& buffer) noexcept;

/// `buffer` behind a shared owner (one allocation) that gives it back
/// here when the last reference lets go.
std::shared_ptr<const std::string> share(std::string buffer);

/// Counts since the process started. Takes and gives below kFloorBytes
/// never reach the pool and are not counted.
struct Stats {
  std::uint64_t reused = 0;      ///< takes served from an idle buffer
  std::uint64_t fresh = 0;       ///< takes >= kFloorBytes that found none
  std::uint64_t kept = 0;        ///< gives whose buffer went idle
  std::uint64_t freed = 0;       ///< gives >= kFloorBytes the bound refused
  std::uint64_t idle_bytes = 0;  ///< capacity held idle now
};

Stats stats();

}  // namespace spi::buffer_pool
