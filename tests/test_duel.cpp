// Unit tests for the set-dueling primitive (sim/duel.hpp): each arm
// expert's queue behavior and the selector's slice routing, vote sign,
// saturation, size-class filter and excluded-access rule.
#include <gtest/gtest.h>

#include <vector>

#include "sim/duel.hpp"

namespace cdn {
namespace {

using duel::Arm;
using duel::Expert;
using duel::Outcome;
using duel::Selector;

Request req(std::uint64_t id, std::uint64_t size) {
  Request r;
  r.id = id;
  r.size = size;
  return r;
}

Outcome touch(Arm& arm, std::uint64_t id, std::uint64_t size) {
  return arm.access(req(id, size), hash64(id));
}

/// The first `n` ids whose hash falls in `slice` of the low `shift` bits.
std::vector<std::uint64_t> ids_in_slice(std::uint64_t slice, int shift,
                                        std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t id = 1; out.size() < n; ++id) {
    if ((hash64(id) & ((1ULL << shift) - 1)) == slice) out.push_back(id);
  }
  return out;
}

TEST(DuelArm, MruArmHitsMissesAndExcludes) {
  Arm arm(100, Expert::kMruInsert);
  EXPECT_EQ(touch(arm, 1, 40), Outcome::kMiss);
  EXPECT_EQ(touch(arm, 1, 40), Outcome::kHit);
  EXPECT_EQ(touch(arm, 2, 101), Outcome::kExcluded);
  // A resident id hits before the size check.
  EXPECT_EQ(touch(arm, 1, 500), Outcome::kHit);
  EXPECT_EQ(touch(arm, 2, 40), Outcome::kMiss);
  EXPECT_EQ(touch(arm, 3, 40), Outcome::kMiss);  // evicts 1 (LRU end)
  EXPECT_EQ(touch(arm, 1, 40), Outcome::kMiss);
}

TEST(DuelArm, DemoteOnHitParksTheFirstHitAtTheLruEnd) {
  Arm arm(100, Expert::kDemoteOnHit);
  (void)touch(arm, 1, 40);
  (void)touch(arm, 2, 40);
  EXPECT_EQ(touch(arm, 2, 40), Outcome::kHit);   // first hit: demoted
  EXPECT_EQ(touch(arm, 3, 40), Outcome::kMiss);  // evicts 2, not 1
  EXPECT_EQ(touch(arm, 1, 40), Outcome::kHit);
  EXPECT_EQ(touch(arm, 2, 40), Outcome::kMiss);
}

TEST(DuelArm, RefuseClassNeverInsertsTheClass) {
  Arm arm(1000, Expert::kRefuseClass, duel::SizeRange{100, 199});
  EXPECT_EQ(touch(arm, 1, 150), Outcome::kMiss);
  EXPECT_EQ(touch(arm, 1, 150), Outcome::kMiss);
  EXPECT_EQ(touch(arm, 2, 50), Outcome::kMiss);
  EXPECT_EQ(touch(arm, 2, 50), Outcome::kHit);
}

TEST(DuelArm, BipArmInsertsAtMruOnceIn32) {
  // Two-slot arm: after 1 then 2, inserting 3 evicts whichever of them sits
  // at the LRU end, so 2 survives only when it went in at MRU.
  int at_mru = 0;
  for (std::uint64_t seed = 1; seed <= 3200; ++seed) {
    Arm arm(10, Expert::kBipInsert, {}, seed);
    for (std::uint64_t id = 1; id <= 3; ++id) (void)touch(arm, id, 5);
    if (touch(arm, 2, 5) == Outcome::kHit) ++at_mru;
  }
  EXPECT_GT(at_mru, 50);  // expectation 100
  EXPECT_LT(at_mru, 200);
}

TEST(DuelSelector, RoutesOnlyItsTwoSlices) {
  Selector s(1ULL << 20, Expert::kMruInsert, Expert::kMruInsert, {3, 0, 4},
             {100, 0, -1});
  for (std::uint64_t slice = 0; slice < 8; ++slice) {
    for (std::uint64_t id : ids_in_slice(slice, 3, 5)) {
      (void)s.feed(req(id, 10), hash64(id));
    }
  }
  EXPECT_EQ(s.feeds(), 10u);  // slices 4 and 5 only
  EXPECT_EQ(s.psel(), 0);     // five low-arm (-1) and five high-arm misses
}

TEST(DuelSelector, VoteSignSaturationAndInitialValue) {
  Selector s(1ULL << 20, Expert::kMruInsert, Expert::kMruInsert, {1, 0, 0},
             {3, 2, +1});
  EXPECT_EQ(s.psel(), 2);
  for (std::uint64_t id : ids_in_slice(0, 1, 4)) {
    EXPECT_TRUE(s.feed(req(id, 10), hash64(id)));  // low-arm miss: +1
  }
  EXPECT_EQ(s.psel(), 3);  // saturated
  for (std::uint64_t id : ids_in_slice(1, 1, 10)) {
    (void)s.feed(req(id, 10), hash64(id));  // high-arm miss: -1
  }
  EXPECT_EQ(s.psel(), -3);
  const std::uint64_t id = ids_in_slice(1, 1, 1)[0];
  EXPECT_FALSE(s.feed(req(id, 10), hash64(id)));  // a hit casts no vote
}

TEST(DuelSelector, OffsetReadsTheNextBlockOfHashBits) {
  Selector s(1ULL << 20, Expert::kMruInsert, Expert::kMruInsert, {6, 6, 0},
             {1024, 0, -1});
  std::uint64_t want = 0;
  for (std::uint64_t id = 1; id <= 20000; ++id) {
    if (((hash64(id) >> 6) & 63) <= 1) ++want;
    (void)s.feed(req(id, 10), hash64(id));
  }
  EXPECT_EQ(s.feeds(), want);
}

TEST(DuelSelector, SizeClassAndExcludedRules) {
  const auto ids = ids_in_slice(0, 1, 3);
  // Only misses inside the size class vote.
  Selector classed(100, Expert::kMruInsert, Expert::kMruInsert, {1, 0, 0},
                   {10, 0, -1}, duel::SizeRange{20, 29});
  EXPECT_FALSE(classed.feed(req(ids[0], 10), hash64(ids[0])));
  EXPECT_TRUE(classed.feed(req(ids[1], 25), hash64(ids[1])));
  EXPECT_EQ(classed.psel(), -1);
  // Objects larger than the arms vote only with excluded_is_miss.
  Selector plain(100, Expert::kMruInsert, Expert::kMruInsert, {1, 0, 0},
                 {10, 0, -1});
  Selector dip(100, Expert::kMruInsert, Expert::kMruInsert, {1, 0, 0},
               {10, 0, -1}, {}, /*excluded_is_miss=*/true);
  EXPECT_FALSE(plain.feed(req(ids[2], 101), hash64(ids[2])));
  EXPECT_TRUE(dip.feed(req(ids[2], 101), hash64(ids[2])));
  EXPECT_EQ(plain.psel(), 0);
  EXPECT_EQ(dip.psel(), -1);
}

TEST(DuelSelector, MetadataChargesArmsAndFixedState) {
  Selector s(1ULL << 20, Expert::kMruInsert, Expert::kBipInsert, {1, 0, 0},
             {10, 0, -1});
  EXPECT_EQ(s.metadata_bytes(), 2 * sizeof(Arm) + Selector::fixed_bytes());
  const std::uint64_t id = ids_in_slice(0, 1, 1)[0];
  (void)s.feed(req(id, 10), hash64(id));
  EXPECT_GT(s.metadata_bytes(), 2 * sizeof(Arm) + Selector::fixed_bytes());
}

}  // namespace
}  // namespace cdn
