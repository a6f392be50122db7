// Test-only reference model of S4LRU: four independent LruQueues, one per
// segment, plus an id -> segment map. Every segment change is an erase from
// one queue and an insert into another, with the per-object fields copied
// across by hand — the straightforward layout the production S4LruCache
// (one SegmentedQueue, moves as relinks) must reproduce decision for
// decision. test_replacement runs the two in lockstep.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>

#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "sim/cache.hpp"
#include "sim/lru_queue.hpp"

namespace cdn::testref {

class FourQueueS4Lru final : public Cache, public obs::Introspectable {
 public:
  explicit FourQueueS4Lru(std::uint64_t capacity_bytes)
      : Cache(capacity_bytes) {
    seg_cap_.fill(capacity_bytes / kLevels);
    seg_cap_[0] += capacity_bytes - (capacity_bytes / kLevels) * kLevels;
  }

  [[nodiscard]] std::string name() const override { return "S4LRU"; }

  bool access(const Request& req) override {
    auto it = level_.find(req.id);
    if (it != level_.end()) {
      const int cur = it->second;
      const int dst = std::min(cur + 1, kLevels - 1);
      LruQueue::Node moved{};
      seg_[static_cast<std::size_t>(cur)].erase(req.id, &moved);
      LruQueue::Node& n =
          seg_[static_cast<std::size_t>(dst)].insert_mru(req.id, moved.size);
      n.hits = moved.hits + 1;
      it->second = static_cast<std::uint8_t>(dst);
      rebalance();
      return true;
    }
    if (!fits(req.size)) return false;
    seg_[0].insert_mru(req.id, req.size);
    level_[req.id] = 0;
    rebalance();
    return false;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return level_.contains(id);
  }

  [[nodiscard]] std::uint64_t used_bytes() const override {
    std::uint64_t total = 0;
    for (const auto& s : seg_) total += s.used_bytes();
    return total;
  }

  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    std::uint64_t total = level_.size() * 48;
    for (const auto& s : seg_) total += s.metadata_bytes();
    return total;
  }

  [[nodiscard]] bool check_invariants() const {
    std::uint64_t n = 0;
    for (int i = 0; i < kLevels; ++i) {
      const auto& s = seg_[static_cast<std::size_t>(i)];
      n += s.count();
      if (s.used_bytes() > seg_cap_[static_cast<std::size_t>(i)] &&
          s.count() > 1) {
        return false;
      }
    }
    if (used_bytes() > capacity_) return false;
    return n == level_.size();
  }

  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override {
    bool keep_going = true;
    for (int i = 0; i < kLevels && keep_going; ++i) {
      seg_[static_cast<std::size_t>(i)].for_each_from_lru(
          [&](const LruQueue::Node& n) {
            keep_going = fn(n.id, n.size);
            return keep_going;
          });
    }
    return true;
  }

  void sample_metrics(obs::MetricRegistry& reg) override {
    for (int i = 0; i < kLevels; ++i) {
      const auto& s = seg_[static_cast<std::size_t>(i)];
      const std::string prefix = "s4lru.seg" + std::to_string(i);
      reg.series(prefix + "_bytes").push(static_cast<double>(s.used_bytes()));
      reg.series(prefix + "_objects").push(static_cast<double>(s.count()));
    }
  }

  [[nodiscard]] const LruQueue& audit_segment(std::size_t i) const {
    return seg_[i];
  }

 private:
  static constexpr int kLevels = 4;

  void rebalance() {
    for (int i = kLevels - 1; i >= 1; --i) {
      auto& s = seg_[static_cast<std::size_t>(i)];
      while (s.used_bytes() > seg_cap_[static_cast<std::size_t>(i)] &&
             s.count() > 1) {
        LruQueue::Node n = s.pop_lru();
        auto& lower = seg_[static_cast<std::size_t>(i - 1)];
        LruQueue::Node& moved = lower.insert_mru(n.id, n.size);
        moved.hits = n.hits;
        level_[n.id] = static_cast<std::uint8_t>(i - 1);
      }
    }
    auto& bottom = seg_[0];
    while (bottom.used_bytes() > seg_cap_[0] && !bottom.empty()) {
      LruQueue::Node n = bottom.pop_lru();
      level_.erase(n.id);
    }
    while (used_bytes() > capacity_) {
      for (int i = 0; i < kLevels; ++i) {
        auto& s = seg_[static_cast<std::size_t>(i)];
        if (!s.empty()) {
          LruQueue::Node n = s.pop_lru();
          level_.erase(n.id);
          break;
        }
      }
    }
  }

  std::array<LruQueue, kLevels> seg_;
  std::array<std::uint64_t, kLevels> seg_cap_{};
  std::unordered_map<std::uint64_t, std::uint8_t> level_;
};

}  // namespace cdn::testref
