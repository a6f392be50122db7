#include "policies/insertion/dip.hpp"

#include <algorithm>

namespace cdn {

DipCache::DipCache(std::uint64_t capacity_bytes, std::uint64_t seed)
    : QueueCache(capacity_bytes),
      // The arms see a 1/64 slice each, so their capacity (1/32) relative
      // to the slice mirrors the main cache.
      duel_(std::max<std::uint64_t>(capacity_bytes / 32, 1),
            duel::Expert::kMruInsert, duel::Expert::kBipInsert, {6, 0, 0},
            {1024, 0, -1}, {}, /*excluded_is_miss=*/true, seed ^ 0x51ed),
      rng_(seed) {}

bool DipCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool DipCache::access_hashed(const Request& req, std::uint64_t h) {
  duel_.feed(req, h);
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    ++n->hits;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  // The main cache executes the winning expert: BIP or MRU insertion.
  const bool use_mru = bip_winning() ? rng_.chance(duel::kBipEpsilon) : true;
  if (use_mru) {
    q_.insert_mru_hashed(req.id, req.size, h);
  } else {
    q_.insert_lru_hashed(req.id, req.size, h);
  }
  return false;
}

std::uint64_t DipCache::metadata_bytes() const {
  return q_.metadata_bytes() + duel_.metadata_bytes();
}

}  // namespace cdn
