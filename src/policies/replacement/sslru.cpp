#include "policies/replacement/sslru.hpp"

#include <algorithm>
#include <cmath>

namespace cdn {

SsLruCache::SsLruCache(std::uint64_t capacity_bytes, double protected_frac,
                       std::uint64_t seed)
    : Cache(capacity_bytes),
      protected_cap_(static_cast<std::uint64_t>(
          std::clamp(protected_frac, 0.1, 0.9) *
          static_cast<double>(capacity_bytes))),
      rng_(seed) {}

SsLruCache::Features SsLruCache::features_of(const Request& req,
                                             const LruQueue::Node& n) const {
  Features x;
  x.f[0] = std::log2(static_cast<float>(req.size) + 1.0f);
  x.f[1] = std::log2(
      static_cast<float>(tick_ - probation_.side(n).last_tick) + 1.0f);
  x.f[2] = std::log2(static_cast<float>(n.hits) + 1.0f);
  return x;
}

bool SsLruCache::predict_promote(const Features& x) const {
  double z = b_;
  for (int j = 0; j < 3; ++j) z += w_[j] * x.f[j];
  return z >= 0.0;
}

void SsLruCache::learn(const Features& x, bool label) {
  double z = b_;
  for (int j = 0; j < 3; ++j) z += w_[j] * x.f[j];
  const double p = 1.0 / (1.0 + std::exp(-z));
  const double g = p - (label ? 1.0 : 0.0);
  constexpr double kLr = 0.05;
  for (int j = 0; j < 3; ++j) {
    w_[j] -= static_cast<float>(kLr * g * x.f[j]);
  }
  b_ -= static_cast<float>(kLr * g);
}

void SsLruCache::enforce_caps() {
  // Protected overflow demotes to probation's MRU end; a protected eviction
  // without a follow-up hit resolves its pending promotion as negative.
  while (protected_.used_bytes() > protected_cap_ && protected_.count() > 1) {
    LruQueue::Node n = protected_.pop_lru();
    auto it = pending_.find(n.id);
    if (it != pending_.end()) {
      learn(it->second, false);
      pending_.erase(it);
    }
    LruQueue::Node& moved = probation_.insert_mru(n.id, n.size);
    probation_.side(moved).last_tick = protected_.removed_side().last_tick;
    moved.hits = n.hits;
  }
  while (used_bytes() > capacity_ && !probation_.empty()) {
    probation_.pop_lru();
  }
  while (used_bytes() > capacity_ && !protected_.empty()) {
    LruQueue::Node n = protected_.pop_lru();
    auto it = pending_.find(n.id);
    if (it != pending_.end()) {
      learn(it->second, false);
      pending_.erase(it);
    }
  }
}

bool SsLruCache::access(const Request& req) {
  ++tick_;
  if (LruQueue::Node* n = protected_.find(req.id)) {
    // A hit inside protected confirms a pending promotion as positive.
    auto it = pending_.find(req.id);
    if (it != pending_.end()) {
      learn(it->second, true);
      pending_.erase(it);
    }
    ++n->hits;
    protected_.side(*n).last_tick = tick_;
    protected_.touch_mru(req.id);
    return true;
  }
  if (LruQueue::Node* n = probation_.find(req.id)) {
    const Features x = features_of(req, *n);
    ++n->hits;
    probation_.side(*n).last_tick = tick_;
    if (predict_promote(x)) {
      LruQueue::Node moved{};
      probation_.erase(req.id, &moved);
      LruQueue::Node& pn = protected_.insert_mru(req.id, moved.size);
      protected_.side(pn).last_tick = tick_;
      pn.hits = moved.hits;
      pending_[req.id] = x;
      enforce_caps();
    } else {
      probation_.touch_mru(req.id);
    }
    return true;
  }
  if (!fits(req.size)) return false;
  probation_.side(probation_.insert_mru(req.id, req.size)).last_tick = tick_;
  enforce_caps();
  return false;
}

std::uint64_t SsLruCache::metadata_bytes() const {
  return probation_.metadata_bytes() + protected_.metadata_bytes() +
         pending_.size() * (sizeof(Features) + 48) + sizeof(w_) + sizeof(b_);
}

}  // namespace cdn
