// Consistent-hash ring over backend endpoints (DESIGN.md §15). The packing
// proxy routes each sub-call of a Parallel_Method by shard key; consistent
// hashing keeps that mapping stable as the fleet changes — when a backend
// joins or leaves, only the keys whose arc it owns move, the rest keep
// their old owner (so backend-local caches and affinity survive scaling
// events). Classic Karger-style ring with virtual nodes for balance.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "net/endpoint.hpp"

namespace spi::proxy {

/// 64-bit key hash, 8 bytes per step (xxHash64's round) with murmur3's
/// fmix64 finalizer. Stable across platforms and runs (words
/// are read little-endian, by memcpy, so alignment does not matter), so
/// tests can pin expected placements and two proxy instances agree on
/// ownership.
std::uint64_t ring_hash(std::string_view bytes);

class HashRing {
 public:
  /// `virtual_nodes` points placed per member. More vnodes = tighter
  /// balance (stddev ~ 1/sqrt(vnodes)) at the cost of a bigger map.
  explicit HashRing(size_t virtual_nodes = 64);

  /// Idempotent; re-adding an existing member is a no-op.
  void add(const net::Endpoint& backend);

  /// Idempotent; removing an absent member is a no-op. Keys the member
  /// owned fall clockwise to the next surviving point — nothing else
  /// moves (the "minimal movement" property the tests pin).
  void remove(const net::Endpoint& backend);

  bool contains(const net::Endpoint& backend) const;
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  std::vector<net::Endpoint> members() const;

  /// Owner of `key`: the first ring point clockwise of hash(key),
  /// wrapping at the top. nullopt on an empty ring.
  std::optional<net::Endpoint> route(std::string_view key) const;

  /// The same owner as an index into members(): route() without copying
  /// an Endpoint, for callers that keep a table per member in members()
  /// order. Indices hold until the next add() or remove().
  std::optional<size_t> route_index(std::string_view key) const;

  /// Owner of `key` skipping members of `avoid` — the reroute path walks
  /// clockwise past failed backends to the nearest survivor. nullopt when
  /// every member is avoided.
  std::optional<net::Endpoint> route_excluding(
      std::string_view key, const std::set<net::Endpoint>& avoid) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t member;  ///< index into members_
  };

  /// First point clockwise of hash(key), wrapping; points_ non-empty.
  std::vector<Point>::const_iterator first_point(std::string_view key) const;

  size_t virtual_nodes_;
  /// The ring, sorted by hash: route() is one binary search over a flat
  /// array. Collisions keep the first-placed owner (deterministic
  /// regardless of add order is NOT promised on collision, but 64-bit
  /// points make collisions astronomically unlikely).
  std::vector<Point> points_;
  /// Members in Endpoint order (what members() returns).
  std::vector<net::Endpoint> members_;
};

}  // namespace spi::proxy
