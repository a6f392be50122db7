// Tests for the admission-policy family (§7): Count-Min sketch, TinyLFU,
// 2Q and AdaptSize.
#include <gtest/gtest.h>

#include "policies/admission/adaptsize.hpp"
#include "policies/admission/count_min.hpp"
#include "policies/admission/tinylfu.hpp"
#include "policies/admission/two_q.hpp"
#include "policies/replacement/lru.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

Request req(std::int64_t t, std::uint64_t id, std::uint64_t size = 10) {
  return Request{t, id, size, -1};
}

TEST(CountMin, CountsAndNeverUndercounts) {
  CountMinSketch sk(1 << 12, 1 << 20);
  for (int i = 0; i < 7; ++i) sk.add(42);
  EXPECT_GE(sk.estimate(42), 7);
  EXPECT_LE(sk.estimate(42), CountMinSketch::kMax);
}

TEST(CountMin, SaturatesAtMax) {
  CountMinSketch sk(1 << 12, 1 << 20);
  for (int i = 0; i < 100; ++i) sk.add(7);
  EXPECT_EQ(sk.estimate(7), CountMinSketch::kMax);
}

TEST(CountMin, ColdKeysNearZero) {
  CountMinSketch sk(1 << 14, 1 << 20);
  for (std::uint64_t k = 0; k < 1000; ++k) sk.add(k);
  int inflated = 0;
  for (std::uint64_t k = 100000; k < 100100; ++k) {
    if (sk.estimate(k) > 1) ++inflated;
  }
  EXPECT_LT(inflated, 10);  // collisions are rare at this load factor
}

TEST(CountMin, AgingHalvesCounts) {
  CountMinSketch sk(1 << 10, /*window=*/100);
  for (int i = 0; i < 14; ++i) sk.add(5);
  const auto before = sk.estimate(5);
  for (int i = 0; i < 100; ++i) sk.add(777777 + i);  // trip the window
  EXPECT_LT(sk.estimate(5), before);
}

TEST(CountMin, AddReturnsThePostUpdateEstimate) {
  // A small window ages every 37 additions, so the read-back is checked on
  // both sides of a halving and on saturated and colliding cells.
  CountMinSketch sk(1 << 6, /*window=*/37);
  Rng rng(0xc0de);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.below(40);
    const std::uint8_t returned = sk.add(key);
    ASSERT_EQ(returned, sk.estimate(key)) << "at addition " << i;
  }
}

TEST(TinyLfu, RejectsOneHitWondersUnderPressure) {
  TinyLfuCache c(1000);
  // Make a popular resident set.
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t h = 0; h < 10; ++h) {
      c.access(req(round * 10 + static_cast<int>(h), h, 100));
    }
  }
  // A stream of never-seen objects should mostly be denied admission.
  const auto rejected_before = c.rejections();
  for (int s = 0; s < 200; ++s) {
    c.access(req(1000 + s, static_cast<std::uint64_t>(5000 + s), 100));
  }
  EXPECT_GT(c.rejections(), rejected_before + 150);
  // The popular set survived the scan.
  int survivors = 0;
  for (std::uint64_t h = 0; h < 10; ++h) {
    if (c.contains(h)) ++survivors;
  }
  EXPECT_GE(survivors, 8);
}

TEST(TinyLfu, WarmingObjectEventuallyAdmitted) {
  TinyLfuCache c(1000);
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t h = 0; h < 10; ++h) {
      c.access(req(round * 10 + static_cast<int>(h), h, 100));
    }
  }
  // A new object requested repeatedly accumulates sketch mass and wins.
  bool admitted = false;
  for (int i = 0; i < 20 && !admitted; ++i) {
    c.access(req(2000 + i, 99999, 100));
    admitted = c.contains(99999);
  }
  EXPECT_TRUE(admitted);
}

TEST(TwoQ, SecondAccessWithinHorizonEntersMain) {
  TwoQCache c(1000);
  c.access(req(0, 1, 100));  // A1in
  EXPECT_TRUE(c.contains(1));
  // Push object 1 out of A1in (its share is 25% = 250 bytes).
  c.access(req(1, 2, 100));
  c.access(req(2, 3, 100));
  c.access(req(3, 4, 100));
  // Second access: ghost hit in A1out -> admitted to Am this time.
  c.access(req(4, 1, 100));
  EXPECT_TRUE(c.contains(1));
  // A subsequent scan through A1in leaves the Am-resident object alone.
  for (int s = 0; s < 50; ++s) {
    c.access(req(10 + s, static_cast<std::uint64_t>(100 + s), 100));
  }
  EXPECT_TRUE(c.contains(1));
}

TEST(TwoQ, CapacityInvariant) {
  TwoQCache c(4ULL << 20);
  const Trace t = generate_trace(cdn_a_like(0.01));
  for (const auto& r : t.requests) {
    c.access(r);
    ASSERT_LE(c.used_bytes(), 4ULL << 20);
  }
}

TEST(AdaptSize, SmallObjectsFavoredOverLarge) {
  AdaptSizeCache c(1ULL << 20);
  int small_admits = 0;
  int large_admits = 0;
  for (int i = 0; i < 500; ++i) {
    c.access(req(2 * i, static_cast<std::uint64_t>(10000 + i), 1024));
    if (c.contains(static_cast<std::uint64_t>(10000 + i))) ++small_admits;
    c.access(req(2 * i + 1, static_cast<std::uint64_t>(50000 + i),
                 4 << 20 >> 2));  // 1 MiB
    if (c.contains(static_cast<std::uint64_t>(50000 + i))) ++large_admits;
  }
  EXPECT_GT(small_admits, large_admits);
}

TEST(AdaptSize, CutoffStaysInBounds) {
  AdaptSizeCache c(8ULL << 20);
  const Trace t = generate_trace(cdn_t_like(0.05));
  for (const auto& r : t.requests) c.access(r);
  EXPECT_GE(c.cutoff(), 1024.0);
  EXPECT_LE(c.cutoff(), 1.1e9);
}

TEST(Admission, TinyLfuBeatsLruOnOneHitHeavyTrace) {
  // The whole point of admission: don't pay cache space for one-hit
  // wonders. On the ZRO-heavy CDN-A-like trace TinyLFU must beat LRU.
  const Trace t = generate_trace(cdn_a_like(0.05));
  const std::uint64_t cap = t.working_set_bytes() / 20;
  TinyLfuCache tiny(cap);
  LruCache lru(cap);
  const auto r_tiny = simulate(tiny, t);
  const auto r_lru = simulate(lru, t);
  EXPECT_LT(r_tiny.object_miss_ratio(), r_lru.object_miss_ratio());
}

}  // namespace
}  // namespace cdn
