#include "policies/admission/size_bucket.hpp"

namespace cdn {

SizeBucketLruCache::SizeBucketLruCache(std::uint64_t capacity_bytes,
                                       SizeBucketParams params)
    : QueueCache(capacity_bytes),
      params_(params),
      rng_(params.seed) {
  const std::uint64_t arm_cap =
      capacity_bytes >> static_cast<unsigned>(params_.cap_shift);
  // The duel needs 2 * kBuckets disjoint slices and arms big enough to
  // produce signal; otherwise degrade to plain LRU (deterministically).
  enabled_ = arm_cap >= params_.monitor_min_bytes &&
             (1ULL << static_cast<unsigned>(params_.slice_shift)) >=
                 2ULL * kBuckets;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const duel::SizeRange bucket{
        kBucketFloor[b],
        b + 1 < kBuckets ? kBucketFloor[b + 1] - 1 : duel::SizeRange{}.hi};
    duels_.emplace_back(arm_cap, duel::Expert::kMruInsert,
                        duel::Expert::kRefuseClass,
                        duel::Selector::Slices{params_.slice_shift, 0, 2 * b},
                        duel::Selector::Counter{params_.psel_max, 0, +1},
                        bucket);
  }
}

bool SizeBucketLruCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool SizeBucketLruCache::access_hashed(const Request& req, std::uint64_t h) {
  if (enabled_) {
    for (duel::Selector& d : duels_) d.feed(req, h);
  }
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    ++n->hits;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  const int b = bucket_of(req.size);
  if (enabled_ && psel(b) >= params_.bypass_threshold &&
      !rng_.chance(params_.epsilon)) {
    ++bypasses_[static_cast<std::size_t>(b)];
    return false;
  }
  make_room(req.size);
  q_.insert_mru_hashed(req.id, req.size, h);
  ++admissions_[static_cast<std::size_t>(b)];
  return false;
}

std::uint64_t SizeBucketLruCache::metadata_bytes() const {
  std::uint64_t total =
      q_.metadata_bytes() + sizeof(admissions_) + sizeof(bypasses_);
  if (enabled_) {
    for (const duel::Selector& d : duels_) total += d.metadata_bytes();
  }
  return total;
}

void SizeBucketLruCache::sample_metrics(obs::MetricRegistry& reg) {
  for (int b = 0; b < kBuckets; ++b) {
    const std::string prefix = "sblru.b" + std::to_string(b);
    reg.series(prefix + "_psel").push(static_cast<double>(psel(b)));
    reg.counter(prefix + "_admissions")
        .raise_to(admissions_[static_cast<std::size_t>(b)]);
    reg.counter(prefix + "_bypasses")
        .raise_to(bypasses_[static_cast<std::size_t>(b)]);
  }
}

}  // namespace cdn
