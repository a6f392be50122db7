// DTA — insertion-policy selection by Decision Tree Analysis
// (Khan & Jiménez, ICCD 2010).
//
// A small decision tree, retrained online, predicts at insertion time
// whether the missing object will be reused during its residency; predicted
// non-reusers are inserted at the LRU position. Training data comes from
// observed eviction outcomes: each victim contributes its insertion-time
// features with label = "was hit during residency". The tree is a
// single-tree instance of our GBM (squared loss, depth 3) rebuilt every
// few thousand outcomes, which matches the original's periodic offline
// analysis phase.
#pragma once

#include <unordered_map>

#include "ml/gbm.hpp"
#include "sim/queue_cache.hpp"

namespace cdn {

class DtaCache final : public QueueCache {
 public:
  explicit DtaCache(std::uint64_t capacity_bytes, std::uint64_t seed = 41);

  static constexpr int kFeatures = 3;  ///< log size, log freq, log gap

  [[nodiscard]] std::string name() const override { return "DTA"; }
  bool access(const Request& req) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  [[nodiscard]] bool tree_trained() const noexcept { return tree_.trained(); }

 protected:
  void on_evict(const LruQueue::Node& victim) override;

 private:
  struct ObjMeta {
    std::uint64_t freq = 0;
    std::int64_t last_seen = -1;
  };
  struct InsertInfo {
    float features[kFeatures];
  };
  void features_for(const Request& req, float* out);
  void trim_meta();

  std::unordered_map<std::uint64_t, ObjMeta> meta_;     ///< request history
  std::unordered_map<std::uint64_t, InsertInfo> live_;  ///< features at insert
  ml::Dataset train_buf_{kFeatures};
  ml::Gbm tree_;
  Rng rng_;
  std::int64_t tick_ = 0;  ///< logical time: one tick per access()
};

}  // namespace cdn
