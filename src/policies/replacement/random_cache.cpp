#include "policies/replacement/random_cache.hpp"

namespace cdn {

bool RandomCache::access(const Request& req) {
  const std::uint64_t h = hash64(req.id);
  if (LruQueue::Node* node = q_.find_hashed(req.id, h)) {
    // No promotion: RANDOM keeps no recency order, so a hit only updates
    // the node's bookkeeping. The analytical model (network_analytic.hpp)
    // assumes exactly this — the resident set evolves only through
    // insertions and uniform evictions.
    ++node->hits;
    return true;
  }
  if (!fits(req.size)) return false;
  make_room_random(req.size);
  q_.insert_mru_hashed(req.id, req.size, h);
  return false;
}

void RandomCache::make_room_random(std::uint64_t size) {
  while (!q_.empty() && q_.used_bytes() + size > capacity_) {
    const std::uint64_t victim_id = q_.sample(rng_).id;
    LruQueue::Node victim;
    q_.erase(victim_id, &victim);
    on_evict(victim);
  }
}

}  // namespace cdn
