// Behavioral tests for the replacement-algorithm baselines, the S4LRU
// differential test against its four-queue reference model, and the
// Belady-optimality property test.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "policies/replacement/belady.hpp"
#include "policies/replacement/cacheus.hpp"
#include "policies/replacement/gdsf.hpp"
#include "policies/replacement/gl_cache.hpp"
#include "policies/replacement/lecar.hpp"
#include "policies/replacement/lhd.hpp"
#include "policies/replacement/lrb.hpp"
#include "policies/replacement/lru.hpp"
#include "policies/replacement/lru_k.hpp"
#include "policies/replacement/s4lru.hpp"
#include "policies/replacement/sslru.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"
#include "trace/stressors/scenarios.hpp"
#include "reference_s4lru.hpp"

namespace cdn {
namespace {

Request req(std::int64_t t, std::uint64_t id, std::uint64_t size = 10) {
  return Request{t, id, size, -1};
}

TEST(LruK, EvictsSubKHistoryFirst) {
  LruKCache c(30, 2);
  c.access(req(0, 1));
  c.access(req(1, 1));  // 1 now has K=2 references
  c.access(req(2, 2));
  c.access(req(3, 3));
  // Cache full: {1 (2 refs), 2 (1 ref), 3 (1 ref)}. Inserting 4 must evict
  // from the infinite-distance band (2, the least recent single-ref), not 1.
  c.access(req(4, 4));
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruK, RetainedHistorySurvivesEviction) {
  LruKCache c(20, 2);
  c.access(req(0, 1));
  c.access(req(1, 1));  // K-history established
  c.access(req(2, 2));
  c.access(req(3, 3));  // evicts someone
  c.access(req(4, 4));
  // Even after eviction, re-accessing 1 resumes the retained history: the
  // single new reference plus retained one keeps it in the K band.
  c.access(req(5, 1));
  EXPECT_TRUE(c.contains(1));
}

TEST(S4Lru, HitClimbsSegments) {
  S4LruCache c(400);
  c.access(req(0, 1, 10));
  EXPECT_TRUE(c.access(req(1, 1, 10)));
  EXPECT_TRUE(c.access(req(2, 1, 10)));
  EXPECT_TRUE(c.access(req(3, 1, 10)));
  EXPECT_TRUE(c.check_invariants());
  // Flood segment 0; object 1, promoted high, must survive.
  for (int i = 0; i < 30; ++i) c.access(req(10 + i, 100 + i, 10));
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.check_invariants());
}

TEST(S4Lru, InvariantsUnderWorkload) {
  S4LruCache c(1 << 20);
  const Trace t = generate_trace(cdn_t_like(0.01));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_TRUE(c.check_invariants());
}

// ---- S4LRU against the four-queue reference model ----------------------
//
// S4LruCache keeps its segments as the lists of one SegmentedQueue and
// moves objects between them by relinking; testref::FourQueueS4Lru is the
// straightforward four-LruQueue layout it replaced. Run in lockstep they
// must agree on every request's hit, on used_bytes, and — audited
// periodically — on the invariant check, the for_each_resident order, the
// per-segment metrics and every resident's carried fields.

/// One resident as both models see it: (segment, id, size, hits,
/// insert_pos), segments walked 0..3 from the LRU end.
using Resident = std::tuple<std::size_t, std::uint64_t, std::uint64_t,
                            std::uint32_t, std::uint8_t>;

std::vector<Resident> residents_of(const S4LruCache& c) {
  std::vector<Resident> out;
  for (std::size_t k = 0; k < S4LruCache::kLevels; ++k) {
    c.audit_segments().for_each_from_lru(k, [&](const auto& n) {
      out.emplace_back(n.list(), n.id, n.size, n.hits, n.insert_pos);
      return true;
    });
  }
  return out;
}

std::vector<Resident> residents_of(const testref::FourQueueS4Lru& c) {
  std::vector<Resident> out;
  for (std::size_t k = 0; k < S4LruCache::kLevels; ++k) {
    c.audit_segment(k).for_each_from_lru([&](const LruQueue::Node& n) {
      out.emplace_back(k, n.id, n.size, n.hits, n.insert_pos);
      return true;
    });
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> resident_order(
    const Cache& c) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  c.for_each_resident([&out](std::uint64_t id, std::uint64_t size) {
    out.emplace_back(id, size);
    return true;
  });
  return out;
}

std::string segment_metrics(obs::Introspectable& c) {
  obs::MetricRegistry reg;
  c.sample_metrics(reg);
  return obs::to_json(reg);
}

/// Replays `reqs` through both models. Hits and used_bytes are compared on
/// every request; the full state every `audit_every` requests and at the
/// end.
::testing::AssertionResult s4lru_lockstep(const std::vector<Request>& reqs,
                                          std::uint64_t capacity,
                                          std::size_t audit_every) {
  S4LruCache fast(capacity);
  testref::FourQueueS4Lru ref(capacity);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const bool hit_fast = fast.access(reqs[i]);
    const bool hit_ref = ref.access(reqs[i]);
    if (hit_fast != hit_ref) {
      return ::testing::AssertionFailure()
             << "hit diverged at request " << i << " (id " << reqs[i].id
             << "): S4LruCache " << hit_fast << ", reference " << hit_ref;
    }
    if (fast.used_bytes() != ref.used_bytes()) {
      return ::testing::AssertionFailure()
             << "used_bytes diverged at request " << i << ": "
             << fast.used_bytes() << " vs " << ref.used_bytes();
    }
    if ((i + 1) % audit_every != 0 && i + 1 != reqs.size()) continue;
    if (fast.check_invariants() != ref.check_invariants() ||
        !fast.check_invariants()) {
      return ::testing::AssertionFailure()
             << "check_invariants at request " << i << ": S4LruCache "
             << fast.check_invariants() << ", reference "
             << ref.check_invariants();
    }
    if (resident_order(fast) != resident_order(ref)) {
      return ::testing::AssertionFailure()
             << "for_each_resident order diverged at request " << i;
    }
    if (residents_of(fast) != residents_of(ref)) {
      return ::testing::AssertionFailure()
             << "segment membership or carried fields diverged at request "
             << i;
    }
    if (segment_metrics(fast) != segment_metrics(ref)) {
      return ::testing::AssertionFailure()
             << "s4lru.seg* metrics diverged at request " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

struct LockstepTrace {
  const char* name;
  Trace trace;
};

const std::vector<LockstepTrace>& lockstep_traces() {
  static const std::vector<LockstepTrace> traces = [] {
    std::vector<LockstepTrace> v;
    v.push_back({"cdn_w_like", generate_trace(cdn_w_like(0.1))});
    v.push_back({"cdn_a_like", generate_trace(cdn_a_like(0.1))});
    v.push_back({"cdn_t_like", generate_trace(cdn_t_like(0.1))});
    v.push_back({"flash", stress::make_stressed_trace(
                              stress::make_stress_scenario("flash", 0.04))});
    v.push_back({"drift", stress::make_stressed_trace(
                              stress::make_stress_scenario("drift", 0.04))});
    return v;
  }();
  return traces;
}

TEST(S4LruDifferential, MatchesFourQueueReferenceOnWorkloads) {
  int cells = 0;
  for (const LockstepTrace& lt : lockstep_traces()) {
    const auto wss = static_cast<double>(lt.trace.working_set_bytes());
    for (const double frac : {0.01, 0.117, 0.5}) {
      const auto cap = static_cast<std::uint64_t>(wss * frac);
      EXPECT_TRUE(s4lru_lockstep(lt.trace.requests, cap, 4096))
          << lt.name << " at " << frac << " of the working set";
      ++cells;
    }
    EXPECT_TRUE(s4lru_lockstep(lt.trace.requests, 1ULL << 20, 4096))
        << lt.name << " at 1 MiB";
    ++cells;
  }
  EXPECT_EQ(cells, 20);
}

TEST(S4LruDifferential, SameIdWithChangedSize) {
  // A hit never resizes a resident: both models keep the admitted size.
  std::vector<Request> reqs;
  std::int64_t t = 0;
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t id = 1; id <= 12; ++id) {
      const std::uint64_t size = 10 + ((id * 37 + round * 11) % 90);
      reqs.push_back(req(t++, id, size));
    }
  }
  EXPECT_TRUE(s4lru_lockstep(reqs, 600, 1));
}

TEST(S4LruDifferential, CapacityEdgeObjects) {
  // Exactly `capacity` bytes is admitted into segment 0 and bled out by the
  // bottom loop; `capacity + 1` never fits.
  constexpr std::uint64_t kCap = 1000;
  std::vector<Request> reqs;
  std::int64_t t = 0;
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t id = 1; id <= 6; ++id) reqs.push_back(req(t++, id, 40));
    reqs.push_back(req(t++, 100, kCap));
    reqs.push_back(req(t++, 101, kCap + 1));
    reqs.push_back(req(t++, 100, kCap));
  }
  EXPECT_TRUE(s4lru_lockstep(reqs, kCap, 1));
}

TEST(S4LruDifferential, LoneObjectLargerThanItsSegment) {
  // 1003 bytes gives segment 0 the rounding remainder (253 bytes against
  // 250 above it), so a 252-byte object is admitted yet overflows every
  // higher segment alone. The cascade's count > 1 guard must leave it in
  // place as it climbs, while small objects churn around it.
  constexpr std::uint64_t kCap = 1003;
  std::vector<Request> reqs;
  std::int64_t t = 0;
  for (int round = 0; round < 30; ++round) {
    reqs.push_back(req(t++, 1, 252));
    reqs.push_back(req(t++, 1, 252));
    for (std::uint64_t j = 0; j < 5; ++j) {
      reqs.push_back(req(t++, 10 + (round * 5 + j) % 17, 20));
    }
  }
  EXPECT_TRUE(s4lru_lockstep(reqs, kCap, 1));
}

TEST(S4LruDifferential, RandomSmallCache) {
  // Dense random churn over few ids, every request audited: the same id
  // with changing sizes, sizes from 1 byte to capacity + 1, and sizes
  // straddling the segment budget (1024 bytes above segment 0's 1027).
  constexpr std::uint64_t kCap = 4099;
  Rng rng(0x54a7);
  std::vector<Request> reqs;
  for (std::int64_t t = 0; t < 20'000; ++t) {
    const std::uint64_t id = rng.below(48);
    std::uint64_t size = 1 + rng.below(300);
    switch (rng.below(8)) {
      case 0: size = 1 + rng.below(kCap + 1); break;
      case 1: size = kCap / 4 - 3 + rng.below(8); break;
      default: break;
    }
    reqs.push_back(req(t, id, size));
  }
  EXPECT_TRUE(s4lru_lockstep(reqs, kCap, 1));
}

TEST(Gdsf, PrefersSmallOverLargeAtEqualFrequency) {
  GdsfCache c(100);
  c.access(req(0, 1, 60));  // large
  c.access(req(1, 2, 10));  // small
  // Full enough that inserting another 60-byte object forces an eviction:
  // the large object has the lower priority (freq/size), so it goes first.
  c.access(req(2, 3, 60));
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
}

TEST(Gdsf, FrequencyProtects) {
  GdsfCache c(100);
  c.access(req(0, 1, 50));
  for (int i = 0; i < 10; ++i) c.access(req(1 + i, 1, 50));  // freq 11
  c.access(req(20, 2, 50));  // freq 1, same size
  c.access(req(21, 3, 50));  // someone must go: the low-frequency one
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(Gdsf, InflationMonotone) {
  GdsfCache c(200);
  double last = c.inflation();
  const Trace t = generate_trace(cdn_a_like(0.005));
  for (const auto& r : t.requests) {
    c.access(r);
    ASSERT_GE(c.inflation(), last);
    last = c.inflation();
  }
}

TEST(Lhd, StaysWithinCapacityAndHitsHotSet) {
  LhdCache c(1 << 16);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    // 8 hot objects + noise.
    const bool hot = i % 2 == 0;
    const std::uint64_t id = hot ? (i / 2) % 8 : 10000 + i;
    if (c.access(req(i, id, 100))) ++hits;
  }
  EXPECT_GT(hits, 8000);  // hot accesses should nearly all hit
  EXPECT_LE(c.used_bytes(), 1u << 16);
}

TEST(LeCar, WeightsStayNormalizedAndMove) {
  LeCarCache c(1 << 14);
  const Trace t = generate_trace(cdn_w_like(0.02));
  for (const auto& r : t.requests) {
    c.access(r);
    ASSERT_GE(c.w_lru(), 0.0);
    ASSERT_LE(c.w_lru(), 1.0);
  }
}

TEST(Cacheus, AdaptiveLearningRateStaysInBounds) {
  CacheusCache c(1 << 14);
  const Trace t = generate_trace(cdn_w_like(0.05));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_GE(c.learning_rate(), 0.001);
  EXPECT_LE(c.learning_rate(), 1.0);
}

TEST(Lrb, TrainsAndRespectsCapacity) {
  LrbParams p;
  p.memory_window = 1 << 14;
  p.train_batch = 2048;
  p.min_retrain_gap = 4096;
  LrbCache c(4ULL << 20, p);
  const Trace t = generate_trace(cdn_w_like(0.05));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_TRUE(c.model_trained());
  EXPECT_GE(c.retrain_count(), 1u);
  EXPECT_LE(c.used_bytes(), 4ULL << 20);
}

TEST(GlCache, TrainsAndRespectsCapacity) {
  GlCacheParams p;
  p.segment_objects = 16;
  p.train_batch = 128;
  p.label_horizon = 2048;
  p.snapshot_every = 32;
  GlCache c(4ULL << 20, p);
  const Trace t = generate_trace(cdn_w_like(0.05));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_TRUE(c.model_trained());
  EXPECT_LE(c.used_bytes(), 4ULL << 20);
}

TEST(SsLru, ProtectedSurvivesScan) {
  SsLruCache c(1 << 14, 0.5);
  // Establish a hot object with several hits (likely promoted).
  for (int i = 0; i < 20; ++i) c.access(req(i, 1, 100));
  // Scan of one-time objects through probation.
  for (int i = 0; i < 200; ++i) c.access(req(100 + i, 1000 + i, 100));
  EXPECT_TRUE(c.contains(1));
}

TEST(Belady, ThrowsOnUnannotatedTrace) {
  BeladyCache c(100);
  EXPECT_THROW(c.access(req(0, 1)), std::runtime_error);
}

TEST(Belady, EvictsFurthestFuture) {
  BeladyCache c(20);
  // next fields hand-crafted.
  c.access(Request{0, 1, 10, 2});   // next at index 2
  c.access(Request{1, 2, 10, 99});  // far future
  c.access(Request{2, 1, 10, 3});   // hit; now full
  c.access(Request{3, 3, 10, 5});   // wait: 1's next=3 passed; evict...
  // Object 2 (next=99) is the furthest and must be the victim.
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(Belady, NeverWorseThanLruOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto spec = cdn_t_like(0.01);
    spec.seed = seed * 101;
    Trace t = generate_trace(spec);
    annotate_next_access(t);
    const std::uint64_t cap = 16ULL << 20;
    LruCache lru(cap);
    BeladyCache belady(cap);
    const auto r_lru = simulate(lru, t);
    const auto r_bel = simulate(belady, t);
    EXPECT_LE(r_bel.object_miss_ratio(), r_lru.object_miss_ratio() + 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace cdn
