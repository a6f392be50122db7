#include "core/scip_s4lru.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/scip_engine.hpp"

namespace cdn {

ScipS4LruCache::ScipS4LruCache(std::uint64_t capacity_bytes,
                               std::shared_ptr<InsertionAdvisor> advisor)
    : Cache(capacity_bytes), advisor_(std::move(advisor)) {
  if (!advisor_) {
    throw std::invalid_argument("ScipS4LruCache: advisor is required");
  }
  seg_cap_.fill(capacity_bytes / kLevels);
  seg_cap_[0] += capacity_bytes - (capacity_bytes / kLevels) * kLevels;
}

std::string ScipS4LruCache::name() const {
  return std::string("S4LRU-") + advisor_->tag();
}

void ScipS4LruCache::evict(std::size_t level) {
  const Segments::Node n = seg_.pop_lru(level);
  advisor_->on_evict(n.id, n.size, n.insert_pos == 1, n.hits > 0);
}

void ScipS4LruCache::rebalance() {
  // Demotions are relinks: the node keeps its hits, ticks and insertion
  // mark, so the advisor sees the original mark when it finally leaves.
  for (std::size_t i = kLevels - 1; i >= 1; --i) {
    while (seg_.bytes(i) > seg_cap_[i] && seg_.count(i) > 1) {
      seg_.relink_mru(seg_.lru(i), i - 1);
    }
  }
  while (seg_.bytes(0) > seg_cap_[0] && !seg_.empty(0)) evict(0);
  while (seg_.used_bytes() > capacity_) {
    std::size_t i = 0;
    while (seg_.empty(i)) ++i;
    evict(i);
  }
}

bool ScipS4LruCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool ScipS4LruCache::access_hashed(const Request& req, std::uint64_t h) {
  // The node pointer stays valid through the hit path: the advisor never
  // touches the segments, and relinks do not move nodes.
  if (Segments::Node* n = seg_.find_hashed(req.id, h)) {
    const bool mru = advisor_->choose_mru_for_hit(req, n->hits + 1);
    ++n->hits;
    if (mru) {
      n->insert_pos = 1;
      seg_.relink_mru(*n, std::min(n->list() + 1, kLevels - 1));
    } else {
      // P-ZRO treatment: straight to the global eviction frontier.
      n->insert_pos = 0;
      seg_.relink_lru(*n, 0);
    }
    rebalance();
    advisor_->on_request(req, true);
    return true;
  }

  advisor_->on_miss(req);
  if (!fits(req.size)) {
    advisor_->on_request(req, false);
    return false;
  }
  if (advisor_->choose_mru_for_miss(req)) {
    seg_.insert_mru(0, req.id, req.size, h);
  } else {
    seg_.insert_lru(0, req.id, req.size, h);
  }
  rebalance();
  advisor_->on_request(req, false);
  return false;
}

std::uint64_t ScipS4LruCache::metadata_bytes() const {
  return seg_.metadata_bytes() + advisor_->metadata_bytes();
}

CachePtr make_s4lru_scip(std::uint64_t capacity_bytes, std::uint64_t seed) {
  ScipParams p;
  p.seed = seed ^ 0x545c;
  return std::make_unique<ScipS4LruCache>(
      capacity_bytes, std::make_shared<ScipAdvisor>(capacity_bytes, p));
}

}  // namespace cdn
