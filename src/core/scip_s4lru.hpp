// SCIP on a multi-chain structure — the paper's stated future work ("SCIP
// cannot be well adapted to multi-chain structure algorithms, but this is
// a focus of our future work", §4).
//
// Host: an S4LRU-style 4-segment stack. Mapping of the advisor's bimodal
// decision onto the multi-chain structure:
//   miss, MRU verdict -> insert at segment 0's MRU end (classic S4LRU);
//   miss, LRU verdict -> insert at segment 0's LRU end (next to evict);
//   hit,  MRU verdict -> climb one segment (classic S4LRU promotion);
//   hit,  LRU verdict -> demote to segment 0's LRU end (P-ZRO treatment).
// Victims always leave from segment 0's LRU end and are reported to the
// advisor with their insertion mark, so SCIP's history lists and duels
// work unchanged. The segments are the four lists of one SegmentedQueue,
// so every segment change above is a relink, never an index erase+insert.
#pragma once

#include <array>
#include <memory>

#include "sim/advisor.hpp"
#include "sim/cache.hpp"
#include "sim/segmented_queue.hpp"

namespace cdn {

class ScipS4LruCache final : public Cache {
 public:
  ScipS4LruCache(std::uint64_t capacity_bytes,
                 std::shared_ptr<InsertionAdvisor> advisor);

  [[nodiscard]] std::string name() const override;
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return seg_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return seg_.used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  static constexpr std::size_t kLevels = 4;

 private:
  using Segments = SegmentedQueue<kLevels>;

  void rebalance();
  void evict(std::size_t level);

  std::shared_ptr<InsertionAdvisor> advisor_;
  Segments seg_;
  std::array<std::uint64_t, kLevels> seg_cap_{};
};

/// Factory for the registry ("S4LRU-SCIP").
[[nodiscard]] CachePtr make_s4lru_scip(std::uint64_t capacity_bytes,
                                       std::uint64_t seed = 1);

}  // namespace cdn
