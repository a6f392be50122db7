// Size-bucketed duel admission ("SB-LRU"): an LRU cache whose admission
// decision is learned *per size class* with SCIP's set-dueling machinery.
//
// Objects are classed into four log-spaced size buckets (< 16 KiB,
// < 256 KiB, < 4 MiB, >= 4 MiB). Each bucket owns one duel::Selector duel
// (sim/duel.hpp): an ADMIT arm that caches everything its slice sends, and
// a BYPASS arm identical except that it refuses the bucket's size class.
// A miss in the admit arm is evidence that admitting the class wastes
// space (+1 on the bucket's saturating psel); a miss in the bypass arm is
// evidence that refusing it loses hits (-1). Only misses of the bucket's
// own class vote (on other classes the two arms are the same policy), and
// objects larger than an arm never vote. When psel crosses the threshold,
// the live cache bypasses misses of that bucket — except for a BIP-style
// epsilon of admissions that keeps the class observable so a shift in the
// workload can rehabilitate it.
//
// Slicing follows SCIP's monitor discipline: arm (b, a) owns slice 2b+a of
// the 2^slice_shift hash slices at capacity >> cap_shift. Below
// `monitor_min_bytes` of arm capacity the duel is disabled and SB-LRU
// degrades to plain LRU.
#pragma once

#include <array>
#include <vector>

#include "obs/introspect.hpp"
#include "sim/duel.hpp"
#include "sim/queue_cache.hpp"
#include "util/rng.hpp"

namespace cdn {

struct SizeBucketParams {
  int slice_shift = 6;  ///< each arm samples 2^-6 of traffic
  int cap_shift = 5;    ///< arms run at capacity >> 5
  std::uint64_t monitor_min_bytes = 2ULL << 20;  ///< duel floor (SCIP's)
  int psel_max = 256;          ///< saturation bound (both signs)
  int bypass_threshold = 64;   ///< psel >= this: bypass the bucket
  double epsilon = 1.0 / 32.0;  ///< exploration admissions while bypassing
  std::uint64_t seed = 0x5b10c;
};

class SizeBucketLruCache final : public QueueCache, public obs::Introspectable {
 public:
  static constexpr int kBuckets = 4;

  explicit SizeBucketLruCache(std::uint64_t capacity_bytes,
                              SizeBucketParams params = {});

  [[nodiscard]] std::string name() const override { return "SB-LRU"; }
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  /// Smallest size of each class.
  static constexpr std::array<std::uint64_t, kBuckets> kBucketFloor = {
      0, 16ULL << 10, 256ULL << 10, 4ULL << 20};

  /// Log-spaced size class: 0 for < 16 KiB, 1 for < 256 KiB, 2 for < 4 MiB,
  /// 3 otherwise.
  [[nodiscard]] static int bucket_of(std::uint64_t size) noexcept {
    int b = kBuckets - 1;
    while (size < kBucketFloor[static_cast<std::size_t>(b)]) --b;
    return b;
  }

  [[nodiscard]] bool duel_enabled() const noexcept { return enabled_; }
  [[nodiscard]] int psel(int bucket) const {
    return duels_.at(static_cast<std::size_t>(bucket)).psel();
  }
  [[nodiscard]] std::uint64_t admissions(int bucket) const {
    return admissions_.at(bucket);
  }
  [[nodiscard]] std::uint64_t bypasses(int bucket) const {
    return bypasses_.at(bucket);
  }

  /// Exports per-bucket psel gauges and cumulative admit/bypass counters.
  void sample_metrics(obs::MetricRegistry& reg) override;

 private:
  SizeBucketParams params_;
  bool enabled_ = false;
  /// One duel per bucket; bucket b's arms own hash slices 2b and 2b+1.
  /// psel > 0 favors bypassing the bucket.
  std::vector<duel::Selector> duels_;
  std::array<std::uint64_t, kBuckets> admissions_{};
  std::array<std::uint64_t, kBuckets> bypasses_{};
  Rng rng_;
};

}  // namespace cdn
