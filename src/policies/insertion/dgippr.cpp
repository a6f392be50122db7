#include "policies/insertion/dgippr.hpp"

#include <algorithm>

namespace cdn {

DgipprCache::DgipprCache(std::uint64_t capacity_bytes, std::uint64_t seed)
    : Cache(capacity_bytes), rng_(seed) {
  for (auto& c : seg_cap_) c = capacity_bytes / kLevels;
  seg_cap_[0] += capacity_bytes - (capacity_bytes / kLevels) * kLevels;
  population_.resize(kPopulation);
  for (auto& g : population_) {
    g.insert_level = static_cast<int>(rng_.below(kLevels));
    g.promote_step = static_cast<int>(rng_.below(kLevels));
  }
}

std::uint64_t DgipprCache::used_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : seg_) total += s.used_bytes();
  return total;
}

void DgipprCache::rebalance() {
  for (int i = kLevels - 1; i >= 1; --i) {
    auto& s = seg_[static_cast<std::size_t>(i)];
    while (s.used_bytes() > seg_cap_[static_cast<std::size_t>(i)] &&
           s.count() > 1) {
      LruQueue::Node n = s.pop_lru();
      LruQueue::Node& moved =
          seg_[static_cast<std::size_t>(i - 1)].insert_mru(n.id, n.size);
      moved.hits = n.hits;
      level_[n.id] = static_cast<std::uint8_t>(i - 1);
    }
  }
  while (seg_[0].used_bytes() > seg_cap_[0] && !seg_[0].empty()) {
    level_.erase(seg_[0].pop_lru().id);
  }
  while (used_bytes() > capacity_) {
    for (auto& s : seg_) {
      if (!s.empty()) {
        level_.erase(s.pop_lru().id);
        break;
      }
    }
  }
}

void DgipprCache::next_genome() {
  Genome& g = population_[current_];
  g.fitness = epoch_requests_ > 0
                  ? static_cast<double>(epoch_hits_) /
                        static_cast<double>(epoch_requests_)
                  : 0.0;
  g.scored = true;
  epoch_requests_ = 0;
  epoch_hits_ = 0;
  ++current_;
  if (current_ >= population_.size()) {
    evolve();
    current_ = 0;
  }
}

void DgipprCache::evolve() {
  ++generations_;
  // Elitist steady-state GA: keep the top half, refill with tournament
  // crossover + mutation.
  std::sort(population_.begin(), population_.end(),
            [](const Genome& a, const Genome& b) {
              return a.fitness > b.fitness;
            });
  const std::size_t keep = population_.size() / 2;
  for (std::size_t i = keep; i < population_.size(); ++i) {
    const Genome& pa = population_[rng_.below(keep)];
    const Genome& pb = population_[rng_.below(keep)];
    Genome child;
    child.insert_level = rng_.chance(0.5) ? pa.insert_level : pb.insert_level;
    child.promote_step = rng_.chance(0.5) ? pa.promote_step : pb.promote_step;
    if (rng_.chance(0.2)) {
      child.insert_level = static_cast<int>(rng_.below(kLevels));
    }
    if (rng_.chance(0.2)) {
      child.promote_step = static_cast<int>(rng_.below(kLevels));
    }
    population_[i] = child;
  }
  for (auto& g : population_) g.scored = false;
}

bool DgipprCache::access(const Request& req) {
  ++epoch_requests_;
  const Genome& g = population_[current_];

  auto it = level_.find(req.id);
  bool hit = false;
  if (it != level_.end()) {
    hit = true;
    ++epoch_hits_;
    const int cur = it->second;
    const int dst = std::min(cur + g.promote_step, kLevels - 1);
    LruQueue::Node moved{};
    seg_[static_cast<std::size_t>(cur)].erase(req.id, &moved);
    LruQueue::Node& n =
        seg_[static_cast<std::size_t>(dst)].insert_mru(req.id, moved.size);
    n.hits = moved.hits + 1;
    it->second = static_cast<std::uint8_t>(dst);
    rebalance();
  } else if (fits(req.size)) {
    seg_[static_cast<std::size_t>(g.insert_level)].insert_mru(req.id,
                                                              req.size);
    level_[req.id] = static_cast<std::uint8_t>(g.insert_level);
    rebalance();
  }

  if (epoch_requests_ >= kEpoch) next_genome();
  return hit;
}

std::uint64_t DgipprCache::metadata_bytes() const {
  std::uint64_t total = level_.size() * 48 +
                        population_.size() * sizeof(Genome);
  for (const auto& s : seg_) total += s.metadata_bytes();
  return total;
}

}  // namespace cdn
