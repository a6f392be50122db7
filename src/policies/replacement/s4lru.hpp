// S4LRU (Facebook photo caching, Huang et al. / used as a CDN baseline in
// the paper): four stacked LRU segments, each a quarter of the capacity.
// Misses enter segment 0's MRU end; a hit in segment i promotes to the MRU
// end of segment min(i+1, 3); overflow of segment i demotes its LRU object
// to segment i-1; overflow of segment 0 evicts.
//
// The segments are the four lists of one SegmentedQueue (one slab, one id
// index): a hit costs one probe plus a relink, every demotion of the
// cascade is a pure relink, and only an eviction touches the index again.
#pragma once

#include <array>

#include "obs/introspect.hpp"
#include "sim/cache.hpp"
#include "sim/segmented_queue.hpp"

namespace cdn {

class S4LruCache final : public Cache, public obs::Introspectable {
 public:
  static constexpr std::size_t kLevels = 4;
  using Segments = SegmentedQueue<kLevels>;

  explicit S4LruCache(std::uint64_t capacity_bytes);

  [[nodiscard]] std::string name() const override { return "S4LRU"; }
  bool access(const Request& req) override;
  CDN_HOT bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return seg_.contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    return seg_.contains_hashed(id, h);
  }
  void prefetch(std::uint64_t id) const noexcept override {
    seg_.prefetch_hashed(hash64(id));
  }
  void prefetch_hashed(std::uint64_t /*id*/,
                       std::uint64_t h) const noexcept override {
    seg_.prefetch_hashed(h);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return seg_.used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return seg_.metadata_bytes();
  }

  /// Invariant check used by tests: per-segment byte usage within bounds
  /// and the shared index/lists structurally consistent.
  [[nodiscard]] bool check_invariants() const;

  /// Segment 0's LRU end first (the only segment that evicts), then each
  /// higher segment LRU-to-MRU — the order the demotion cascade would bleed
  /// objects out if no further hits arrived.
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override;

  /// Exports per-segment occupancy ("s4lru.seg<i>_bytes" / "_objects").
  void sample_metrics(obs::MetricRegistry& reg) override;

  /// Read-only view of the segments for differential tests (per-object
  /// fields, list membership). Never used by policies.
  [[nodiscard]] const Segments& audit_segments() const noexcept {
    return seg_;
  }

 private:
  CDN_HOT void rebalance();  ///< overflow demotions, then evictions

  Segments seg_;
  std::array<std::uint64_t, kLevels> seg_cap_{};
};

}  // namespace cdn
