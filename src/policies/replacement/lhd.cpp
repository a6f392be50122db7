#include "policies/replacement/lhd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cdn {

LhdCache::LhdCache(std::uint64_t capacity_bytes, std::uint64_t seed)
    : Cache(capacity_bytes), rng_(seed) {
  // Optimistic priors: young objects look valuable until data accumulates.
  for (auto& cls : classes_) {
    for (int b = 0; b < kAgeBins; ++b) {
      cls.density[static_cast<std::size_t>(b)] =
          1.0 / (1.0 + static_cast<double>(b));
    }
  }
}

int LhdCache::age_bin(std::int64_t last_tick) const {
  const std::int64_t age = (tick_ - last_tick) >> age_shift_;
  return static_cast<int>(
      std::min<std::int64_t>(std::max<std::int64_t>(age, 0), kAgeBins - 1));
}

int LhdCache::class_of(std::uint32_t hits, std::uint64_t size) const {
  const int hc = static_cast<int>(std::min<std::uint32_t>(hits, 3));
  // log2(size) quartiles tuned for CDN object scales (<=4K, <=64K, <=1M, >).
  int sc;
  if (size <= 4096) {
    sc = 0;
  } else if (size <= 65536) {
    sc = 1;
  } else if (size <= (1u << 20)) {
    sc = 2;
  } else {
    sc = 3;
  }
  return hc * kSizeClasses + sc;
}

void LhdCache::reconfigure() {
  // Adapt the age coarsening before folding densities: if too much mass
  // lands in the last bin the clock is too fine; if nearly all mass sits in
  // the first few bins it is too coarse.
  double total = 0.0;
  double top = 0.0;
  double bottom = 0.0;
  for (const auto& cls : classes_) {
    for (int b = 0; b < kAgeBins; ++b) {
      const double m = cls.hits[static_cast<std::size_t>(b)] +
                       cls.evictions[static_cast<std::size_t>(b)];
      total += m;
      if (b >= kAgeBins - 4) top += m;
      if (b < 4) bottom += m;
    }
  }
  if (total > 0.0) {
    if (top / total > 0.25) {
      ++age_shift_;
    } else if (bottom / total > 0.9 && age_shift_ > 0) {
      --age_shift_;
    }
  }

  for (auto& cls : classes_) {
    // LHD's density fold: walking ages from old to young, accumulate the
    // events and total remaining lifetime observed beyond each age.
    double hit_acc = 0.0;
    double lifetime_acc = 0.0;
    double event_acc = 0.0;
    for (int b = kAgeBins - 1; b >= 0; --b) {
      hit_acc += cls.hits[static_cast<std::size_t>(b)];
      event_acc += cls.hits[static_cast<std::size_t>(b)] +
                   cls.evictions[static_cast<std::size_t>(b)];
      lifetime_acc += event_acc;
      cls.density[static_cast<std::size_t>(b)] =
          lifetime_acc > 0.0 ? hit_acc / lifetime_acc : 0.0;
    }
    for (int b = 0; b < kAgeBins; ++b) {
      cls.hits[static_cast<std::size_t>(b)] *= 0.9;
      cls.evictions[static_cast<std::size_t>(b)] *= 0.9;
    }
  }
}

void LhdCache::evict_one() {
  // Sampled eviction: lowest density-per-byte among kSamples random objects.
  double best_score = std::numeric_limits<double>::infinity();
  std::uint64_t best_id = 0;
  const int samples =
      static_cast<int>(std::min<std::size_t>(kSamples, q_.count()));
  for (int s = 0; s < samples; ++s) {
    LruQueue::Node& n = q_.sample(rng_);
    const int cls = class_of(n.hits, n.size);
    const double d =
        classes_[static_cast<std::size_t>(cls)]
            .density[static_cast<std::size_t>(age_bin(q_.side(n).last_tick))];
    const double score = d / static_cast<double>(n.size);
    if (score < best_score) {
      best_score = score;
      best_id = n.id;
    }
  }
  LruQueue::Node victim{};
  q_.erase(best_id, &victim);
  const int cls = class_of(victim.hits, victim.size);
  classes_[static_cast<std::size_t>(cls)]
      .evictions[static_cast<std::size_t>(
          age_bin(q_.removed_side().last_tick))] += 1.0;
}

bool LhdCache::access(const Request& req) {
  ++tick_;
  if (tick_ >= next_reconfig_) {
    reconfigure();
    next_reconfig_ = tick_ + (1 << 16);
  }
  if (LruQueue::Node* n = q_.find(req.id)) {
    const int cls = class_of(n->hits, n->size);
    LruQueue::Side& s = q_.side(*n);
    classes_[static_cast<std::size_t>(cls)]
        .hits[static_cast<std::size_t>(age_bin(s.last_tick))] += 1.0;
    ++n->hits;
    s.last_tick = tick_;
    return true;
  }
  if (!fits(req.size)) return false;
  while (q_.used_bytes() + req.size > capacity_ && !q_.empty()) evict_one();
  q_.side(q_.insert_mru(req.id, req.size)).last_tick = tick_;
  return false;
}

std::uint64_t LhdCache::metadata_bytes() const {
  return q_.metadata_bytes() + sizeof(classes_);
}

}  // namespace cdn
