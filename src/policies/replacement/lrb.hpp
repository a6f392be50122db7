// LRB — Learning Relaxed Belady (Song et al., NSDI 2020), reimplemented on
// our GBM substrate.
//
// Core ideas preserved from the paper:
//  * Memory window W: objects not re-accessed within W requests are treated
//    as "beyond the Belady boundary"; their training label saturates at 2W.
//  * Features: recency (time since last access), a history of inter-access
//    deltas, exponentially decayed counters (EDCs) at doubling time scales,
//    object size and access count. (We use 8 deltas + 8 EDCs instead of
//    32 + 10 — the scaled-down traces have proportionally shorter horizons.)
//  * Online training: sampled requests become pending examples, labeled by
//    the object's actual next access distance (or 2W on window expiry); a
//    GBM regressor on log-distance is retrained periodically.
//  * Relaxed-Belady eviction: sample a fixed number of resident objects,
//    evict one predicted beyond the boundary if any, else the predicted-
//    farthest.
//
// Optionally hosts an InsertionAdvisor (LRB-SCIP, Fig. 12): an LRU-position
// decision marks the object eviction-preferred ("cold"); sampled eviction
// treats cold objects as beyond-boundary until a later MRU-position
// decision clears the mark. This follows §4's guidance that SCIP decides
// placement while the host model keeps deciding eviction.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <unordered_map>

#include "ml/gbm.hpp"
#include "sim/advisor.hpp"
#include "sim/cache.hpp"
#include "sim/lru_queue.hpp"
#include "util/rng.hpp"

namespace cdn {

struct LrbParams {
  std::size_t memory_window = 1 << 17;  ///< W, in requests
  int sample_every = 4;                 ///< training-sample stride
  std::size_t train_batch = 8192;       ///< labeled rows per retrain
  std::size_t min_retrain_gap = 32768;  ///< requests between retrains
  int eviction_samples = 32;
  ml::GbmParams gbm{.n_trees = 16,
                    .max_depth = 4,
                    .learning_rate = 0.2,
                    .n_bins = 32,
                    .min_samples_leaf = 32,
                    .subsample = 1.0,
                    .lambda = 1.0,
                    .loss = ml::GbmParams::Loss::kSquared};
  std::uint64_t seed = 19;
};

class LrbCache final : public Cache {
 public:
  static constexpr int kDeltas = 8;
  static constexpr int kEdcs = 8;
  static constexpr int kFeatures = 1 + kDeltas + kEdcs + 2;

  LrbCache(std::uint64_t capacity_bytes, LrbParams params = {},
           std::shared_ptr<InsertionAdvisor> advisor = nullptr);

  [[nodiscard]] std::string name() const override;
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return q_.used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  [[nodiscard]] bool model_trained() const noexcept {
    return gbm_.trained();
  }
  [[nodiscard]] std::size_t retrain_count() const noexcept {
    return retrains_;
  }

 private:
  struct ObjState {
    std::int64_t last_access = -1;
    std::array<std::int32_t, kDeltas> deltas{};  ///< -1 = unknown
    std::array<float, kEdcs> edc{};
    std::uint32_t access_count = 0;
    std::uint64_t size = 0;

    ObjState() { deltas.fill(-1); }
  };
  struct Pending {
    std::int64_t sample_tick;
    std::array<float, kFeatures> features;
  };

  void update_state(ObjState& st, const Request& req);
  void fill_features(const ObjState& st, float* out) const;
  void maybe_sample(const Request& req, const ObjState& st);
  void resolve_pending(std::uint64_t id, std::int64_t now);
  void expire_pending();
  void purge_state();
  void maybe_train();
  void evict_one();
  [[nodiscard]] double boundary_label() const;

  LrbParams params_;
  std::shared_ptr<InsertionAdvisor> advisor_;
  LruQueue q_{LruQueue::kWithSide};  ///< node.flags bit0: advisor "cold" mark
  std::unordered_map<std::uint64_t, ObjState> state_;
  std::deque<std::pair<std::int64_t, std::uint64_t>> seen_fifo_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::deque<std::pair<std::int64_t, std::uint64_t>> pending_fifo_;
  ml::Dataset train_buf_{kFeatures};
  ml::Gbm gbm_;
  Rng rng_;
  std::int64_t tick_ = 0;
  std::int64_t last_train_tick_ = 0;
  std::size_t retrains_ = 0;
};

}  // namespace cdn
