// Size-aware frontier tests: the ByteOracleCache offline bound and the
// SB-LRU size-bucketed duel admission policy.
//
// The oracle tests hand-trace the size-weighted eviction/bypass rules on
// tiny annotated traces (where the exact victim is checkable by hand) and
// pin the contract edges: unannotated traces throw, never-again objects
// free or bypass, and compute_oracle_bounds refuses stale annotations. The
// SB-LRU tests drive the duel mechanics deterministically through
// access_hashed with hand-chosen hashes, so each monitor arm can be
// targeted directly instead of hoping a workload's hash slices cooperate.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "analysis/byte_oracle.hpp"
#include "core/registry.hpp"
#include "policies/admission/size_bucket.hpp"
#include "policies/replacement/lru.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

Request areq(std::uint64_t id, std::uint64_t size, std::int64_t next) {
  Request r;
  r.id = id;
  r.size = size;
  r.next = next;
  return r;
}

TEST(ByteOracle, ThrowsOnUnannotatedTrace) {
  analysis::ByteOracleCache cache(1000);
  Request r;
  r.id = 1;
  r.size = 10;
  r.next = -1;  // annotate_next_access never ran
  EXPECT_THROW((void)cache.access(r), std::runtime_error);
}

TEST(ByteOracle, EvictsMaximumSizeTimesDistance) {
  // Capacity 100, three 40-byte objects. At index 2 the cache holds ids
  // 1 and 2 and must make room: id 1's weight is 40 * (5 - 3) = 80, id 2's
  // is 40 * (3 - 3) = 0, the incoming id 3's is 40 * (4 - 3) = 40. The
  // byte-optimal victim is the MAXIMUM weight (id 1) — recency or
  // min-weight eviction would pick id 2 and lose its immediate reuse.
  analysis::ByteOracleCache cache(100);
  Trace t;
  t.name = "hand";
  t.requests = {areq(1, 40, 5),  areq(2, 40, 3),
                areq(3, 40, 4),  areq(2, 40, Request::kNoNext),
                areq(3, 40, Request::kNoNext),
                areq(1, 40, Request::kNoNext)};
  ASSERT_TRUE(annotation_current(t));

  EXPECT_FALSE(cache.access(t[0]));
  EXPECT_FALSE(cache.access(t[1]));
  EXPECT_FALSE(cache.access(t[2]));
  EXPECT_FALSE(cache.contains(1));  // max-weight victim
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.check_invariants());

  EXPECT_TRUE(cache.access(t[3]));   // hit, then freed (never again)
  EXPECT_TRUE(cache.access(t[4]));
  EXPECT_FALSE(cache.access(t[5]));  // evicted earlier; never-again bypass
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_TRUE(cache.check_invariants());
}

TEST(ByteOracle, BypassesWhenIncomingWeightExceedsResidents) {
  // id 1 is reused immediately (weight 0 at decision time); the incoming
  // id 2 would occupy 60 * (9 - 2) = 420 byte-steps. Displacing the better
  // resident loses; the oracle must bypass id 2 and keep the hit on id 1.
  analysis::ByteOracleCache cache(100);
  EXPECT_FALSE(cache.access(areq(1, 60, 2)));
  EXPECT_FALSE(cache.access(areq(2, 60, 9)));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.access(areq(1, 60, Request::kNoNext)));
  EXPECT_TRUE(cache.check_invariants());
}

TEST(ByteOracle, NeverAgainObjectsFreeOrBypass) {
  analysis::ByteOracleCache cache(1000);
  // Hit with no future access: served, then the bytes are freed eagerly.
  EXPECT_FALSE(cache.access(areq(1, 100, 1)));
  EXPECT_TRUE(cache.access(areq(1, 100, Request::kNoNext)));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.count(), 0u);
  // Miss with no future access: admitting can never pay off.
  EXPECT_FALSE(cache.access(areq(2, 100, Request::kNoNext)));
  EXPECT_FALSE(cache.contains(2));
  // Oversized miss bypasses like every Cache.
  EXPECT_FALSE(cache.access(areq(3, 5000, 10)));
  EXPECT_FALSE(cache.contains(3));
}

TEST(ByteOracle, BeatsLruOnByteMissRatio) {
  Trace t = generate_trace(cdn_w_like(0.01));
  annotate_next_access(t);
  const auto cap = static_cast<std::uint64_t>(
      0.1 * static_cast<double>(t.working_set_bytes()));

  analysis::ByteOracleCache oracle(cap);
  LruCache lru(cap);
  const SimResult ro = simulate(oracle, t);
  const SimResult rl = simulate(lru, t);
  // The greedy bound is not provably optimal, but on a CDN-like trace it
  // must not lose to plain recency on the metric it optimizes.
  EXPECT_LE(ro.byte_miss_ratio(), rl.byte_miss_ratio());
  EXPECT_TRUE(oracle.check_invariants());
}

TEST(ByteOracle, ComputeBoundsIsDeterministicAndChecksAnnotation) {
  Trace t = generate_trace(cdn_w_like(0.005));
  annotate_next_access(t);
  const auto cap = static_cast<std::uint64_t>(
      0.1 * static_cast<double>(t.working_set_bytes()));

  const auto a = analysis::compute_oracle_bounds(t, cap);
  const auto b = analysis::compute_oracle_bounds(t, cap);
  EXPECT_TRUE(deterministic_equal(a.object_belady, b.object_belady));
  EXPECT_TRUE(deterministic_equal(a.byte_oracle, b.byte_oracle));
  EXPECT_EQ(a.object_belady.policy, "Belady");
  EXPECT_EQ(a.byte_oracle.policy, "ByteOracle");

  // Rewriting a recurring id after annotation makes its `next` stale — the
  // bounds must refuse to compute garbage. (Pick a request with a real
  // next-access: a never-again request stays kNoNext under any unique id.)
  for (Request& r : t.requests) {
    if (r.next != Request::kNoNext) {
      r.id ^= 0x123456789abcULL;
      break;
    }
  }
  EXPECT_THROW((void)analysis::compute_oracle_bounds(t, cap),
               std::invalid_argument);
}

TEST(ByteOracle, MetadataBytesAreSizeofDerived) {
  using analysis::ByteOracleCache;
  EXPECT_EQ(ByteOracleCache::kPerEntryBytes,
            ByteOracleCache::kMapNodeBytes + ByteOracleCache::kSetNodeBytes);
  ByteOracleCache cache(1 << 20);
  for (std::uint64_t id = 1; id <= 9; ++id) {
    (void)cache.access(areq(id, 100, static_cast<std::int64_t>(100 + id)));
  }
  EXPECT_EQ(cache.metadata_bytes(),
            cache.count() * ByteOracleCache::kPerEntryBytes);
}

// ---------------------------------------------------------------------------
// SB-LRU: size-bucketed duel admission.

Request sreq(std::uint64_t id, std::uint64_t size) {
  Request r;
  r.id = id;
  r.size = size;
  return r;
}

TEST(SizeBucketLru, BucketBoundariesArePinned) {
  using C = SizeBucketLruCache;
  EXPECT_EQ(C::bucket_of(1), 0);
  EXPECT_EQ(C::bucket_of((16ULL << 10) - 1), 0);
  EXPECT_EQ(C::bucket_of(16ULL << 10), 1);
  EXPECT_EQ(C::bucket_of((256ULL << 10) - 1), 1);
  EXPECT_EQ(C::bucket_of(256ULL << 10), 2);
  EXPECT_EQ(C::bucket_of((4ULL << 20) - 1), 2);
  EXPECT_EQ(C::bucket_of(4ULL << 20), 3);
  EXPECT_EQ(C::bucket_of(1ULL << 40), 3);
}

/// Params with a 3-bit slice (8 slices == 2 * kBuckets, the minimum that
/// keeps the duel enabled) so a hand-chosen hash h targets monitor arm
/// h & 7 directly: arm (bucket b, admit/bypass a) sits at slice 2b + a.
SizeBucketParams targeted_params() {
  SizeBucketParams p;
  p.slice_shift = 3;
  p.epsilon = 0.0;  // no exploration: bypass decisions are deterministic
  return p;
}

TEST(SizeBucketLru, AdmitArmMissRaisesOwnBucketPsel) {
  SizeBucketLruCache cache(128ULL << 20, targeted_params());
  ASSERT_TRUE(cache.duel_enabled());
  // Unique 1 MiB objects (bucket 2) into slice 4 = bucket 2's ADMIT arm:
  // every one is a miss of the arm's own bucket, evidence that admitting
  // the class wastes space.
  for (std::uint64_t id = 1; id <= 10; ++id) {
    (void)cache.access_hashed(sreq(id, 1ULL << 20), /*h=*/4);
  }
  EXPECT_EQ(cache.psel(2), 10);
  EXPECT_EQ(cache.psel(0), 0);
  EXPECT_EQ(cache.psel(1), 0);
  EXPECT_EQ(cache.psel(3), 0);
}

TEST(SizeBucketLru, BypassArmMissLowersOwnBucketPsel) {
  SizeBucketLruCache cache(128ULL << 20, targeted_params());
  ASSERT_TRUE(cache.duel_enabled());
  // Slice 5 = bucket 2's BYPASS arm: its misses of bucket-2 objects are
  // evidence that refusing the class loses hits.
  for (std::uint64_t id = 1; id <= 10; ++id) {
    (void)cache.access_hashed(sreq(id, 1ULL << 20), /*h=*/5);
  }
  EXPECT_EQ(cache.psel(2), -10);
}

TEST(SizeBucketLru, CrossBucketMissCarriesNoEvidence) {
  SizeBucketLruCache cache(128ULL << 20, targeted_params());
  ASSERT_TRUE(cache.duel_enabled());
  // Small (bucket 0) objects into bucket 2's arms: both arms treat them
  // identically, so their misses must not move ANY psel.
  for (std::uint64_t id = 1; id <= 10; ++id) {
    (void)cache.access_hashed(sreq(id, 4096), /*h=*/4);
    (void)cache.access_hashed(sreq(100 + id, 4096), /*h=*/5);
  }
  for (int b = 0; b < SizeBucketLruCache::kBuckets; ++b) {
    EXPECT_EQ(cache.psel(b), 0) << "bucket " << b;
  }
}

TEST(SizeBucketLru, OversizeForMonitorIsExcludedEvidence) {
  // Monitor capacity is 128 MiB >> 5 = 4 MiB; an 8 MiB object (bucket 3)
  // cannot fit ANY monitor, so it is a guaranteed miss in both arms and
  // must be excluded from the duel entirely.
  SizeBucketLruCache cache(128ULL << 20, targeted_params());
  ASSERT_TRUE(cache.duel_enabled());
  for (std::uint64_t id = 1; id <= 10; ++id) {
    (void)cache.access_hashed(sreq(id, 8ULL << 20), /*h=*/6);  // admit arm
    (void)cache.access_hashed(sreq(50 + id, 8ULL << 20), /*h=*/7);
  }
  EXPECT_EQ(cache.psel(3), 0);
}

TEST(SizeBucketLru, ResidentIdReRequestedOversizeHitsItsArm) {
  // An arm probes its index before the size check, like the main caches:
  // an id resident in the arm that comes back larger than the arm (4 MiB)
  // is a hit there, touched to MRU, and never a vote. Generated and
  // stressed traces fix each id's size, so only this adversarial sequence
  // tells the order apart from "size check first", which would leave id
  // a[0] at the LRU end to be evicted by a[4] and then missed. The arm
  // evicts, so the ids carry their real hashes (slice 4, bucket 2's admit
  // arm) rather than a forced h.
  std::vector<std::uint64_t> a;
  for (std::uint64_t id = 1; a.size() < 5; ++id) {
    if ((hash64(id) & 7) == 4) a.push_back(id);
  }
  SizeBucketLruCache cache(128ULL << 20, targeted_params());
  ASSERT_TRUE(cache.duel_enabled());
  for (int i = 0; i < 4; ++i) (void)cache.access(sreq(a[i], 1ULL << 20));
  EXPECT_EQ(cache.psel(2), 4);
  (void)cache.access(sreq(a[0], 8ULL << 20));
  EXPECT_EQ(cache.psel(2), 4);
  EXPECT_EQ(cache.psel(3), 0);
  (void)cache.access(sreq(a[4], 1ULL << 20));  // evicts a[1], not a[0]
  EXPECT_EQ(cache.psel(2), 5);
  (void)cache.access(sreq(a[0], 1ULL << 20));  // still resident: no vote
  EXPECT_EQ(cache.psel(2), 5);
}

TEST(SizeBucketLru, LearnedBypassRefusesTheBucket) {
  SizeBucketLruCache cache(128ULL << 20, targeted_params());
  ASSERT_TRUE(cache.duel_enabled());
  // Drive bucket 2's psel past the threshold via its admit arm.
  SizeBucketParams p = targeted_params();
  for (std::uint64_t id = 1;
       cache.psel(2) < p.bypass_threshold; ++id) {
    (void)cache.access_hashed(sreq(id, 1ULL << 20), /*h=*/4);
  }
  const std::uint64_t used_before = cache.used_bytes();
  // With epsilon = 0 the live cache now refuses every bucket-2 miss.
  (void)cache.access_hashed(sreq(999'001, 1ULL << 20), /*h=*/8);  // slice 0
  EXPECT_FALSE(cache.contains(999'001));
  EXPECT_EQ(cache.used_bytes(), used_before);
  EXPECT_GE(cache.bypasses(2), 1u);
  // Other buckets are unaffected: a small object still gets admitted.
  const std::uint64_t admitted_before = cache.admissions(0);
  (void)cache.access_hashed(sreq(999'002, 4096), /*h=*/8);
  EXPECT_EQ(cache.admissions(0), admitted_before + 1);
  EXPECT_EQ(cache.used_bytes(), used_before + 4096);
}

TEST(SizeBucketLru, DegradesToPlainLruBelowMonitorFloor) {
  // 16 MiB >> 5 = 512 KiB of monitor capacity, below the 2 MiB floor: the
  // duel is off and behavior must be bitwise plain LRU.
  const std::uint64_t cap = 16ULL << 20;
  SizeBucketLruCache sb(cap);
  EXPECT_FALSE(sb.duel_enabled());
  LruCache lru(cap);
  Rng rng(0x5b10);
  for (int i = 0; i < 20'000; ++i) {
    const Request r = sreq(1 + rng.below(4000), 1 + rng.below(64 * 1024));
    ASSERT_EQ(sb.access(r), lru.access(r)) << "request " << i;
    ASSERT_EQ(sb.used_bytes(), lru.used_bytes()) << "request " << i;
  }
}

TEST(SizeBucketLru, MetadataIncludesMonitors) {
  // Same content, duel on vs off: the enabled cache additionally accounts
  // its duels — arm index nodes plus each arm's and selector's fixed state.
  SizeBucketLruCache enabled(128ULL << 20, targeted_params());
  ASSERT_TRUE(enabled.duel_enabled());
  SizeBucketLruCache degraded(16ULL << 20);
  ASSERT_FALSE(degraded.duel_enabled());
  for (std::uint64_t id = 1; id <= 100; ++id) {
    (void)enabled.access_hashed(sreq(id, 4096), id & 7);
    (void)degraded.access_hashed(sreq(id, 4096), id & 7);
  }
  EXPECT_GT(enabled.metadata_bytes(), degraded.metadata_bytes());
}

TEST(SizeBucketLru, SampleMetricsExportsPerBucketState) {
  SizeBucketLruCache cache(128ULL << 20, targeted_params());
  for (std::uint64_t id = 1; id <= 5; ++id) {
    (void)cache.access_hashed(sreq(id, 1ULL << 20), /*h=*/4);
  }
  obs::MetricRegistry reg;
  cache.sample_metrics(reg);
  ASSERT_EQ(reg.all_series().count("sblru.b2_psel"), 1u);
  const auto& psel2 = reg.all_series().at("sblru.b2_psel").samples();
  ASSERT_EQ(psel2.size(), 1u);
  EXPECT_EQ(psel2[0], static_cast<double>(cache.psel(2)));
  EXPECT_EQ(reg.counters().at("sblru.b2_admissions").value(),
            cache.admissions(2));
  EXPECT_EQ(reg.counters().at("sblru.b2_bypasses").value(),
            cache.bypasses(2));
}

TEST(SizeBucketLru, RegistryConstructsIt) {
  const CachePtr c = make_cache("SB-LRU", 64ULL << 20);
  EXPECT_EQ(c->name(), "SB-LRU");
  (void)c->access(sreq(1, 4096));
  EXPECT_TRUE(c->contains(1));
}

}  // namespace
}  // namespace cdn
