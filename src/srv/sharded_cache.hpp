// ShardedCache: a lock-striped in-process cache service.
//
// Capacity is partitioned across N shards; each shard is an independent
// registry-constructed policy instance (SCIP included) behind its own
// annotated cdn::Mutex. Requests route to a shard by a pure function of the
// 64-bit object id (splitmix-based hash64 reduced mod N), so routing is
// bitwise-stable across runs, thread counts, and platforms, and a given
// object always lives in exactly one shard.
//
// Concurrency model:
//  * access()/access_batch() lock only the target shard, so requests to
//    different shards never contend.
//  * access_batch() acquires each touched shard's lock once per batch (not
//    once per request) and visits shards opportunistically: try_lock,
//    serve whichever stripe is free, and block only when every stripe
//    still pending is held elsewhere. Callers additionally stagger their
//    walk order so concurrent batches start on different shards. More
//    shards thus mean more alternatives when one is busy — the mechanism
//    that makes batch throughput scale with the shard count.
//  * snapshot() reads each shard under its own lock, one at a time — there
//    is no global lock anywhere; aggregate stats are computed from the
//    per-shard snapshot by plain summation (srv/shard_stats.hpp).
//
// Determinism: with one shard and one driver thread, ShardedCache is
// behaviorally identical to the wrapped policy at full capacity (same
// seed -> same hit/miss sequence), which is what lets the throughput bench
// cross-check its 1-shard hit ratios against the unsharded golden masters.
// With multiple shards, each shard deterministically sees the subsequence
// of requests routed to it, so single-threaded replays are reproducible at
// any shard count; only multi-threaded interleaving (which never changes a
// shard's request order relative to its own stream under a single driver,
// but does across concurrent drivers) makes concurrent hit counts run-to-
// run approximate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "util/attr.hpp"
#include "srv/shard_stats.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace cdn::srv {

struct ShardedCacheConfig {
  std::string policy = "SCIP";  ///< registry name (core/registry.hpp)
  std::uint64_t capacity_bytes = 1ULL << 30;
  std::size_t shards = 1;
  /// Seed for shard 0; shard i gets seed + i. With one shard this matches
  /// make_cache(policy, capacity, seed) exactly.
  std::uint64_t seed = 1;
};

class ShardedCache final : public Cache {
 public:
  /// Builds every shard through the policy registry.
  explicit ShardedCache(const ShardedCacheConfig& config);

  /// Builds shards through a custom factory (capacity, shard index) —
  /// used by tests to observe shard construction; `config.policy` is only
  /// used for name().
  ShardedCache(const ShardedCacheConfig& config,
               const std::function<CachePtr(std::uint64_t, std::size_t)>&
                   make_shard_cache);

  /// Shard index for an object id: hash64(id) % shards. Pure and stateless.
  [[nodiscard]] static std::size_t shard_of(std::uint64_t id,
                                            std::size_t shards) noexcept;
  /// shard_of() with the caller-precomputed hash64(id).
  [[nodiscard]] static std::size_t shard_of_hashed(std::uint64_t h,
                                                   std::size_t shards) noexcept;

  /// Capacity of shard `s` when `total` bytes split over `shards` shards:
  /// total/shards rounded down, with the remainder spread over the first
  /// total%shards shards so shard capacities always sum to `total`.
  [[nodiscard]] static std::uint64_t shard_capacity(std::uint64_t total,
                                                    std::size_t shards,
                                                    std::size_t s) noexcept;

  // Cache interface (thread-safe).
  [[nodiscard]] std::string name() const override;
  bool access(const Request& req) override;
  [[nodiscard]] bool contains(std::uint64_t id) const override;
  [[nodiscard]] std::uint64_t used_bytes() const override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Processes `n` requests, writing per-request hit flags to `hits_out`
  /// (which must have room for `n` values). Each shard's lock is taken at
  /// most once; within a shard, requests are served in input order.
  /// `first_shard` rotates the shard visit order (worker w passes w so
  /// concurrent batches start on different stripes); it never changes the
  /// result, only the locking schedule.
  CDN_HOT void access_batch(const Request* reqs, std::size_t n,
                            bool* hits_out, std::size_t first_shard = 0);

  /// Point-in-time per-shard stats; one lock acquisition per shard, no
  /// global lock. Shards appear in index order.
  [[nodiscard]] std::vector<ShardStats> snapshot() const;

  /// Field-wise sum of snapshot().
  [[nodiscard]] ShardStats totals() const { return sum_stats(snapshot()); }

 private:
  struct Shard {
    mutable Mutex mu;
    CachePtr cache CDN_PT_GUARDED_BY(mu);
    ShardStats counters CDN_GUARDED_BY(mu);
  };

  /// Serves order[begin, end) of the batch against one shard, handing each
  /// request's routing hash (hashes[i] == hash64(reqs[i].id)) to the
  /// policy; the caller holds the shard's lock.
  CDN_HOT void serve_run_locked(Shard& s, const Request* reqs,
                                const std::uint64_t* hashes,
                                const std::uint32_t* order,
                                std::uint32_t begin, std::uint32_t end,
                                bool* hits_out) CDN_REQUIRES(s.mu);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::string policy_;
};

}  // namespace cdn::srv
