// LHD — Least Hit Density (Beckmann, Chen, Cidon; NSDI 2018).
//
// Objects are ranked by hit density: the expected number of future hits per
// unit of remaining lifetime, normalized by size. Per-class (hit-count
// bucket x size bucket) histograms of hit and eviction ages are folded into
// a density table; eviction samples a fixed number of random resident
// objects and removes the one with the lowest density/byte, which avoids
// any ordered structure (exactly the associative-sampling design of the
// original system). Histograms decay geometrically at reconfiguration so
// the estimator tracks workload drift, and the age-coarsening shift adapts
// when eviction ages saturate the top histogram bins.
#pragma once

#include <array>
#include <cstdint>

#include "sim/cache.hpp"
#include "sim/lru_queue.hpp"
#include "util/rng.hpp"

namespace cdn {

class LhdCache final : public Cache {
 public:
  explicit LhdCache(std::uint64_t capacity_bytes, std::uint64_t seed = 11);

  [[nodiscard]] std::string name() const override { return "LHD"; }
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return q_.contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return q_.used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  static constexpr int kAgeBins = 64;
  static constexpr int kHitClasses = 4;   ///< hits 0,1,2,3+
  static constexpr int kSizeClasses = 4;  ///< log2(size) quartiles
  static constexpr int kClasses = kHitClasses * kSizeClasses;
  static constexpr int kSamples = 32;

 private:
  struct ClassStats {
    std::array<double, kAgeBins> hits{};
    std::array<double, kAgeBins> evictions{};
    std::array<double, kAgeBins> density{};
  };

  [[nodiscard]] int age_bin(std::int64_t last_tick) const;
  [[nodiscard]] int class_of(std::uint32_t hits, std::uint64_t size) const;
  void reconfigure();
  void evict_one();

  LruQueue q_{LruQueue::kWithSide};
  std::array<ClassStats, kClasses> classes_;
  Rng rng_;
  std::int64_t tick_ = 0;
  int age_shift_ = 8;
  std::int64_t next_reconfig_ = 1 << 16;
};

}  // namespace cdn
