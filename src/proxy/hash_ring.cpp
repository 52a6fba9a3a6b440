#include "proxy/hash_ring.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace spi::proxy {

namespace {

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;

std::uint64_t load_le(const char* bytes, size_t count) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, count);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// xxHash64's per-word round.
std::uint64_t fold_word(std::uint64_t hash, std::uint64_t word) {
  word = std::rotl(word * kP2, 31) * kP1;
  return std::rotl(hash ^ word, 27) * kP1 + kP4;
}

}  // namespace

std::uint64_t ring_hash(std::string_view bytes) {
  // 8-byte words, then the last 1-7 bytes as one zero-padded word; the
  // length is folded in first, so padding is unambiguous.
  const char* at = bytes.data();
  size_t left = bytes.size();
  std::uint64_t hash = kP5 + bytes.size();
  for (; left >= 8; at += 8, left -= 8) hash = fold_word(hash, load_le(at, 8));
  if (left > 0) hash = fold_word(hash, load_le(at, left));
  // fmix64 (murmur3): full avalanche, so keys that differ only in a few
  // trailing bytes ("host:80#0" vs "host:80#1") land far apart on the
  // ring, whose order is decided by the high bits.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

namespace {

std::string vnode_name(const net::Endpoint& backend, size_t index) {
  return backend.to_string() + "#" + std::to_string(index);
}

}  // namespace

HashRing::HashRing(size_t virtual_nodes)
    : virtual_nodes_(virtual_nodes == 0 ? 1 : virtual_nodes) {}

void HashRing::add(const net::Endpoint& backend) {
  auto at = std::lower_bound(members_.begin(), members_.end(), backend);
  if (at != members_.end() && *at == backend) return;
  const auto member = static_cast<std::uint32_t>(at - members_.begin());
  members_.insert(at, backend);
  for (Point& point : points_) {
    if (point.member >= member) ++point.member;
  }
  for (size_t i = 0; i < virtual_nodes_; ++i) {
    const std::uint64_t hash = ring_hash(vnode_name(backend, i));
    auto slot = std::lower_bound(
        points_.begin(), points_.end(), hash,
        [](const Point& point, std::uint64_t h) { return point.hash < h; });
    if (slot != points_.end() && slot->hash == hash) continue;
    points_.insert(slot, Point{hash, member});
  }
}

void HashRing::remove(const net::Endpoint& backend) {
  auto at = std::lower_bound(members_.begin(), members_.end(), backend);
  if (at == members_.end() || !(*at == backend)) return;
  const auto member = static_cast<std::uint32_t>(at - members_.begin());
  members_.erase(at);
  std::erase_if(points_,
                [member](const Point& point) { return point.member == member; });
  for (Point& point : points_) {
    if (point.member > member) --point.member;
  }
}

bool HashRing::contains(const net::Endpoint& backend) const {
  return std::binary_search(members_.begin(), members_.end(), backend);
}

std::vector<net::Endpoint> HashRing::members() const { return members_; }

std::vector<HashRing::Point>::const_iterator HashRing::first_point(
    std::string_view key) const {
  auto at = std::lower_bound(
      points_.begin(), points_.end(), ring_hash(key),
      [](const Point& point, std::uint64_t h) { return point.hash < h; });
  return at == points_.end() ? points_.begin() : at;  // wrap past the top
}

std::optional<size_t> HashRing::route_index(std::string_view key) const {
  if (points_.empty()) return std::nullopt;
  return first_point(key)->member;
}

std::optional<net::Endpoint> HashRing::route(std::string_view key) const {
  if (points_.empty()) return std::nullopt;
  return members_[first_point(key)->member];
}

std::optional<net::Endpoint> HashRing::route_excluding(
    std::string_view key, const std::set<net::Endpoint>& avoid) const {
  if (points_.empty()) return std::nullopt;
  // Walk clockwise at most once around: the first point owned by a
  // non-avoided member wins. Bounded by ring size, not by luck.
  auto at = first_point(key);
  for (size_t steps = 0; steps < points_.size(); ++steps) {
    const net::Endpoint& owner = members_[at->member];
    if (!avoid.contains(owner)) return owner;
    ++at;
    if (at == points_.end()) at = points_.begin();
  }
  return std::nullopt;
}

}  // namespace spi::proxy
