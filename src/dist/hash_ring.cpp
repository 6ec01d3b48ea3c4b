#include "dist/hash_ring.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace gaplan::dist {

std::uint64_t stable_hash64(std::string_view bytes, std::uint64_t seed) {
  // splitmix64 over 8-byte words keeps this cheap for host:port-sized ids
  // while staying platform-stable (no size_t/std::hash involvement).
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL + bytes.size());
  std::uint64_t word = 0;
  std::size_t fill = 0;
  for (const char c : bytes) {
    word = (word << 8) | static_cast<unsigned char>(c);
    if (++fill == 8) {
      state ^= word;
      state = util::splitmix64(state);
      word = 0;
      fill = 0;
    }
  }
  state ^= word ^ (static_cast<std::uint64_t>(fill) << 56);
  state = util::splitmix64(state);
  return util::splitmix64(state);
}

HashRing::HashRing(std::size_t vnodes_per_unit)
    : vnodes_per_unit_(vnodes_per_unit == 0 ? 1 : vnodes_per_unit) {}

bool HashRing::add(const std::string& id, double weight) {
  if (!(weight > 0.0) || !std::isfinite(weight)) return false;
  for (const Backend& b : backends_) {
    if (b.id == id) return false;
  }
  const auto index = static_cast<std::uint32_t>(backends_.size());
  backends_.push_back({id, weight});
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             weight * static_cast<double>(vnodes_per_unit_))));
  const std::uint64_t base = stable_hash64(id);
  points_.reserve(points_.size() + n);
  for (std::size_t r = 0; r < n; ++r) {
    // Each replica's point derives from (id hash, replica) so a backend's
    // point set is a pure function of its id — identical on every router.
    std::uint64_t s = base ^ (0xA24BAED4963EE407ULL * (r + 1));
    points_.push_back({util::splitmix64(s), index});
  }
  std::sort(points_.begin(), points_.end());
  return true;
}

bool HashRing::remove(const std::string& id) {
  std::size_t victim = backends_.size();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].id == id) {
      victim = i;
      break;
    }
  }
  if (victim == backends_.size()) return false;
  std::erase_if(points_, [&](const VNode& v) { return v.backend == victim; });
  // Backend indices above the victim shift down; remap the surviving points.
  for (VNode& v : points_) {
    if (v.backend > victim) --v.backend;
  }
  backends_.erase(backends_.begin() + static_cast<std::ptrdiff_t>(victim));
  return true;
}

std::size_t HashRing::first_at_or_after(std::uint64_t key) const {
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const VNode& v, std::uint64_t k) { return v.point < k; });
  if (it == points_.end()) return 0;  // wrap around
  return static_cast<std::size_t>(it - points_.begin());
}

const std::string* HashRing::owner(std::uint64_t key) const {
  if (points_.empty()) return nullptr;
  return &backends_[points_[first_at_or_after(key)].backend].id;
}

std::vector<std::string> HashRing::chain(std::uint64_t key,
                                         std::size_t n) const {
  std::vector<std::string> out;
  if (points_.empty() || n == 0) return out;
  const std::size_t want = std::min(n, backends_.size());
  std::vector<bool> seen(backends_.size(), false);
  std::size_t i = first_at_or_after(key);
  for (std::size_t steps = 0; steps < points_.size() && out.size() < want;
       ++steps) {
    const std::uint32_t b = points_[i].backend;
    if (!seen[b]) {
      seen[b] = true;
      out.push_back(backends_[b].id);
    }
    i = (i + 1) % points_.size();
  }
  return out;
}

}  // namespace gaplan::dist
