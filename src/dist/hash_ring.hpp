// Weighted consistent-hash ring over backend workers.
//
// The router maps a request's 128-bit plan-cache fingerprint onto one of N
// backend workers by hashing the fingerprint's high word onto a ring of
// virtual nodes. Each backend contributes `weight * vnodes_per_unit` points
// (so an unequal machine can own a proportionally larger key share — the
// heterogeneous-nodes premise of the dual-island architecture the dist layer
// follows), and a key's owner is the first point at or clockwise after the
// key.
//
// Two properties the rest of the layer leans on (both property-tested in
// tests/test_prop_dist.cpp):
//
//  * Stability — membership changes move only the minimal key share: a key
//    changes owner on a removal iff its owner was the removed backend, and
//    on an addition iff the new backend captured it. Everything else stays
//    put, so a worker restart never invalidates the surviving workers'
//    warm caches.
//  * Balance — with the default vnode count, equal-weight backends receive
//    key shares within a small constant factor of fair, and a weight-w
//    backend receives ~w times the unit share.
//
// Liveness is deliberately NOT ring state: the ring always reflects the
// configured membership, and the router walks `chain()` (the successor list
// of distinct backends) past marked-down entries. Keeping dead backends on
// the ring means their keys come straight back to them on recovery instead
// of being reshuffled twice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gaplan::dist {

class HashRing {
 public:
  /// `vnodes_per_unit` points per 1.0 of backend weight (minimum 1 per
  /// backend after scaling, so a tiny weight still lands on the ring).
  explicit HashRing(std::size_t vnodes_per_unit = 64);

  /// Adds a backend. Returns false (no-op) when the id is already present
  /// or the weight is not positive.
  bool add(const std::string& id, double weight = 1.0);

  /// Removes a backend and its points. Returns false when unknown.
  bool remove(const std::string& id);

  std::size_t size() const noexcept { return backends_.size(); }
  bool empty() const noexcept { return backends_.empty(); }
  std::size_t points() const noexcept { return points_.size(); }

  /// The owner of `key`, or nullptr on an empty ring. The pointer stays
  /// valid until the next add/remove.
  const std::string* owner(std::uint64_t key) const;

  /// The first `n` *distinct* backends at or after `key` in ring order —
  /// owner first, then its successors: the failover chain the router walks
  /// when the owner is marked down. Shorter than `n` when the ring has
  /// fewer backends.
  std::vector<std::string> chain(std::uint64_t key, std::size_t n) const;

 private:
  struct VNode {
    std::uint64_t point;
    std::uint32_t backend;
    bool operator<(const VNode& o) const noexcept {
      // Tie-break on backend index so ring order is total and deterministic
      // even in the (astronomically unlikely) event of a point collision.
      if (point != o.point) return point < o.point;
      return backend < o.backend;
    }
  };
  struct Backend {
    std::string id;
    double weight;
  };

  std::size_t first_at_or_after(std::uint64_t key) const;

  std::size_t vnodes_per_unit_;
  std::vector<Backend> backends_;
  std::vector<VNode> points_;  ///< sorted by (point, backend)
};

/// Stable 64-bit hash of a byte string (splitmix64 chained per byte plus a
/// length cap) — the ring's point hash and a general-purpose key hash for
/// ids. Deterministic across platforms and processes, which is what lets a
/// router restart reproduce the same ring.
std::uint64_t stable_hash64(std::string_view bytes, std::uint64_t seed = 0);

}  // namespace gaplan::dist
