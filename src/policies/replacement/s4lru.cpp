#include "policies/replacement/s4lru.hpp"

#include <algorithm>
#include <string>

namespace cdn {

S4LruCache::S4LruCache(std::uint64_t capacity_bytes)
    : Cache(capacity_bytes) {
  seg_cap_.fill(capacity_bytes / kLevels);
  // Give the rounding remainder to the bottom segment.
  seg_cap_[0] += capacity_bytes - (capacity_bytes / kLevels) * kLevels;
}

void S4LruCache::rebalance() {
  // Demote overflow downward, each step a relink to the MRU end of the
  // segment below. A single object bigger than its segment is tolerated in
  // place (count > 1 guard) — the global loop below still enforces the
  // total capacity.
  for (std::size_t i = kLevels - 1; i >= 1; --i) {
    while (seg_.bytes(i) > seg_cap_[i] && seg_.count(i) > 1) {
      seg_.relink_mru(seg_.lru(i), i - 1);
    }
  }
  while (seg_.bytes(0) > seg_cap_[0] && !seg_.empty(0)) {
    (void)seg_.pop_lru(0);
  }
  // Global capacity enforcement: evict upward from the lowest segment.
  while (seg_.used_bytes() > capacity_) {
    std::size_t i = 0;
    while (seg_.empty(i)) ++i;
    (void)seg_.pop_lru(i);
  }
}

bool S4LruCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool S4LruCache::access_hashed(const Request& req, std::uint64_t h) {
  if (Segments::Node* n = seg_.find_hashed(req.id, h)) {
    ++n->hits;
    seg_.relink_mru(*n, std::min(n->list() + 1, kLevels - 1));
    rebalance();
    return true;
  }
  if (!fits(req.size)) return false;
  seg_.insert_mru(0, req.id, req.size, h);
  rebalance();
  return false;
}

void S4LruCache::sample_metrics(obs::MetricRegistry& reg) {
  for (std::size_t i = 0; i < kLevels; ++i) {
    const std::string prefix = "s4lru.seg" + std::to_string(i);
    reg.series(prefix + "_bytes").push(static_cast<double>(seg_.bytes(i)));
    reg.series(prefix + "_objects").push(static_cast<double>(seg_.count(i)));
  }
}

bool S4LruCache::for_each_resident(
    const std::function<bool(std::uint64_t, std::uint64_t)>& fn) const {
  for (std::size_t i = 0; i < kLevels; ++i) {
    const bool finished = seg_.for_each_from_lru(
        i, [&fn](const auto& n) { return fn(n.id, n.size); });
    if (!finished) break;
  }
  return true;
}

bool S4LruCache::check_invariants() const {
  for (std::size_t i = 0; i < kLevels; ++i) {
    if (seg_.bytes(i) > seg_cap_[i] && seg_.count(i) > 1) {
      return false;  // one oversized object alone may exceed a segment
    }
  }
  return seg_.used_bytes() <= capacity_ && seg_.check_structure();
}

}  // namespace cdn
