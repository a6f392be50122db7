// Tests for the slab-backed LRU queue and its K-list sibling
// SegmentedQueue, each including a randomized differential test against a
// straightforward std::list reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <set>
#include <vector>

#include "sim/lru_queue.hpp"
#include "sim/segmented_queue.hpp"
#include "util/rng.hpp"

namespace cdn {
namespace {

// The hot node is half a cache line: every queue policy's relink, find and
// eviction touches these 32 bytes and nothing else.
static_assert(sizeof(LruQueue::Node) == 32);
static_assert(sizeof(SegmentedQueue<4>::Node) == 32);

TEST(LruQueue, InsertAndFind) {
  LruQueue q;
  q.insert_mru(1, 100);
  EXPECT_TRUE(q.contains(1));
  EXPECT_FALSE(q.contains(2));
  EXPECT_EQ(q.used_bytes(), 100u);
  EXPECT_EQ(q.count(), 1u);
  ASSERT_NE(q.find(1), nullptr);
  EXPECT_EQ(q.find(1)->size, 100u);
  EXPECT_EQ(q.find(2), nullptr);
}

TEST(LruQueue, InsertPositionMarks) {
  LruQueue q;
  EXPECT_EQ(q.insert_mru(1, 1).insert_pos, 1);
  EXPECT_EQ(q.insert_lru(2, 1).insert_pos, 0);
}

TEST(LruQueue, PopLruOrder) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  EXPECT_EQ(q.pop_lru().id, 1u);
  EXPECT_EQ(q.pop_lru().id, 2u);
  EXPECT_EQ(q.pop_lru().id, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(LruQueue, InsertLruGoesToTail) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_lru(2, 1);
  EXPECT_EQ(q.lru_id(), 2u);
  EXPECT_EQ(q.mru_id(), 1u);
}

TEST(LruQueue, TouchMovesToMru) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  q.touch_mru(1);
  EXPECT_EQ(q.mru_id(), 1u);
  EXPECT_EQ(q.pop_lru().id, 2u);
}

TEST(LruQueue, MoveUpOneSwapsWithNeighbor) {
  LruQueue q;
  q.insert_mru(1, 1);  // order MRU->LRU: 3 2 1
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  q.move_up_one(1);  // -> 3 1 2
  EXPECT_EQ(q.pop_lru().id, 2u);
  EXPECT_EQ(q.pop_lru().id, 1u);
  EXPECT_EQ(q.pop_lru().id, 3u);
}

TEST(LruQueue, MoveUpOneAtMruIsNoop) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.move_up_one(2);
  EXPECT_EQ(q.mru_id(), 2u);
}

TEST(LruQueue, DemoteLru) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.demote_lru(2);
  EXPECT_EQ(q.lru_id(), 2u);
}

TEST(LruQueue, EraseReturnsNode) {
  LruQueue q;
  q.insert_mru(1, 10);
  q.insert_mru(2, 20);
  LruQueue::Node out{};
  EXPECT_TRUE(q.erase(1, &out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_EQ(out.size, 10u);
  EXPECT_EQ(q.used_bytes(), 20u);
  EXPECT_FALSE(q.erase(1));
}

TEST(LruQueue, SingleElementEdgeCases) {
  LruQueue q;
  q.insert_mru(9, 5);
  EXPECT_EQ(q.lru_id(), 9u);
  EXPECT_EQ(q.mru_id(), 9u);
  q.touch_mru(9);
  q.move_up_one(9);
  q.demote_lru(9);
  EXPECT_EQ(q.pop_lru().id, 9u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.used_bytes(), 0u);
}

TEST(LruQueue, SlabReuseAfterErase) {
  LruQueue q;
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 100; ++i) q.insert_mru(i, 1);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_TRUE(q.erase(i));
  }
  EXPECT_TRUE(q.empty());
  // Metadata tracks live entries (free-listed slab slots don't count), so
  // an emptied queue reports zero regardless of the slab high-water mark.
  EXPECT_EQ(q.metadata_bytes(), 0u);
}

TEST(LruQueue, SampleReturnsResidentObjects) {
  LruQueue q(LruQueue::kWithSide);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 50; ++i) q.insert_mru(i, 1);
  std::set<std::uint64_t> seen;
  for (int s = 0; s < 2000; ++s) seen.insert(q.sample(rng).id);
  EXPECT_GT(seen.size(), 40u);  // near-uniform coverage
  for (auto id : seen) EXPECT_LT(id, 50u);
}

TEST(LruQueue, ForEachFromLruOrderAndEarlyStop) {
  LruQueue q;
  q.insert_mru(1, 1);
  q.insert_mru(2, 1);
  q.insert_mru(3, 1);
  std::vector<std::uint64_t> order;
  q.for_each_from_lru([&](const LruQueue::Node& n) {
    order.push_back(n.id);
    return order.size() < 2;
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
}

TEST(LruQueue, HashedOpsMatchPlain) {
  // The hashed overloads with the caller-precomputed hash64(id) must be
  // structurally indistinguishable from the plain ops they shadow.
  LruQueue plain, hashed;
  Rng rng(77);
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t id = rng.below(48);
    const std::uint64_t h = hash64(id);
    switch (rng.below(4)) {
      case 0:
        if (!plain.contains(id)) {
          plain.insert_mru(id, 1 + id);
          hashed.insert_mru_hashed(id, 1 + id, h);
        }
        break;
      case 1:
        if (!plain.contains(id)) {
          plain.insert_lru(id, 1 + id);
          hashed.insert_lru_hashed(id, 1 + id, h);
        }
        break;
      case 2: {
        LruQueue::Node* a = plain.find(id);
        LruQueue::Node* b = hashed.find_hashed(id, h);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
          ASSERT_EQ(a->id, b->id);
        }
        break;
      }
      case 3:
        ASSERT_EQ(plain.erase(id), hashed.erase_hashed(id, h));
        break;
    }
    ASSERT_EQ(plain.count(), hashed.count());
    ASSERT_EQ(plain.used_bytes(), hashed.used_bytes());
  }
  while (!plain.empty()) {
    ASSERT_EQ(plain.pop_lru().id, hashed.pop_lru().id);
  }
}

TEST(LruQueue, PopLruReportsVictimHash) {
  LruQueue q;
  q.insert_mru(7, 1);
  q.insert_mru(9, 1);
  std::uint64_t h = 0;
  EXPECT_EQ(q.pop_lru(&h).id, 7u);
  EXPECT_EQ(h, hash64(7));
  EXPECT_EQ(q.pop_lru(&h).id, 9u);
  EXPECT_EQ(h, hash64(9));
}

TEST(LruQueue, TailShadowTracksVictimAndInsertPos) {
  // lru_id()/lru_insert_pos() are served from the tail shadow; walk it
  // through every operation that moves the tail (the debug asserts inside
  // them additionally cross-check the shadow against the node).
  LruQueue q;
  q.insert_mru(1, 1);
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 1);
  q.insert_lru(2, 1);  // tail moves to the LRU-inserted node
  EXPECT_EQ(q.lru_id(), 2u);
  EXPECT_EQ(q.lru_insert_pos(), 0);
  q.touch_mru(2);  // unlink from tail: shadow falls back to node 1
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 1);
  LruQueue::Node* n = q.find(1);
  ASSERT_NE(n, nullptr);
  q.reinsert_lru(*n);  // in-place demotion rewrites the mark before relink
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 0);
  n = q.find(1);
  ASSERT_NE(n, nullptr);
  q.reinsert_mru(*n);  // tail falls back to 2, which keeps its LRU mark
  EXPECT_EQ(q.lru_id(), 2u);
  EXPECT_EQ(q.lru_insert_pos(), 0);
  (void)q.pop_lru();  // tail falls back to 1, reinserted at MRU above
  EXPECT_EQ(q.lru_id(), 1u);
  EXPECT_EQ(q.lru_insert_pos(), 1);
}

TEST(LruQueue, ReinsertMatchesEraseInsertRestore) {
  // reinsert_mru/_lru replace SCIP's historical erase + insert + restore
  // sequence; the visible order and fields must match it exactly. Hot
  // fields ride in the node; on a queue with the side array, `last_tick`
  // and `aux` ride in its side record and must carry the same way.
  for (const bool with_side : {false, true}) {
    SCOPED_TRACE(with_side ? "side array" : "compact");
    LruQueue a = with_side ? LruQueue(LruQueue::kWithSide) : LruQueue();
    LruQueue b = with_side ? LruQueue(LruQueue::kWithSide) : LruQueue();
    for (std::uint64_t id = 1; id <= 4; ++id) {
      a.insert_mru(id, 10);
      b.insert_mru(id, 10);
    }
    LruQueue::Node* n = a.find(2);
    ASSERT_NE(n, nullptr);
    n->hits = 5;
    n->flags = 3;
    LruQueue::Node& promoted = a.reinsert_mru(*n);  // in-place PROMOTE
    if (with_side) {
      a.side(promoted).last_tick = 7;
      a.side(promoted).aux = 99;
    }
    LruQueue::Node out{};
    ASSERT_TRUE(b.erase(2, &out));
    LruQueue::Node& fresh = b.insert_mru(2, 10);
    fresh.hits = 5;  // field restore the old sequence had to do by hand
    fresh.flags = 3;
    if (with_side) {
      b.side(fresh).last_tick = 7;
      b.side(fresh).aux = 99;
    }
    ASSERT_EQ(a.count(), b.count());
    while (!a.empty()) {
      const LruQueue::Node va = a.pop_lru();
      const LruQueue::Node vb = b.pop_lru();
      ASSERT_EQ(va.id, vb.id);
      ASSERT_EQ(va.hits, vb.hits);
      ASSERT_EQ(va.flags, vb.flags);
      ASSERT_EQ(va.insert_pos, vb.insert_pos);
      if (with_side) {
        ASSERT_EQ(a.removed_side().last_tick, b.removed_side().last_tick);
        ASSERT_EQ(a.removed_side().aux, b.removed_side().aux);
      }
    }
  }
}

TEST(LruQueue, SideRecordFollowsItsNodeAndOutlivesRemoval) {
  LruQueue q(LruQueue::kWithSide);
  ASSERT_TRUE(q.has_side());
  for (std::uint64_t id = 1; id <= 4; ++id) {
    LruQueue::Side& s = q.side(q.insert_mru(id, 10));
    EXPECT_EQ(s.last_tick, 0);  // a new object starts with a clean record
    EXPECT_EQ(s.aux, 0u);
    s.last_tick = static_cast<std::int64_t>(10 * id);
    s.aux = id;
  }
  // Relinks move list links only: every record stays with its node.
  q.touch_mru(1);
  q.demote_lru(4);
  q.move_up_one(2);
  q.reinsert_lru(*q.find(3));
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(q.side(*q.find(id)).last_tick,
              static_cast<std::int64_t>(10 * id));
    EXPECT_EQ(q.side(*q.find(id)).aux, id);
  }
  // A victim's record stays readable after its slot is freed.
  const LruQueue::Node victim = q.pop_lru();
  EXPECT_EQ(q.removed_side().aux, victim.id);
  LruQueue::Node erased{};
  ASSERT_TRUE(q.erase(2, &erased));
  EXPECT_EQ(q.removed_side().last_tick, 20);
  // Reusing the freed slot hands the new object a reset record.
  LruQueue::Side& reused = q.side(q.insert_mru(9, 10));
  EXPECT_EQ(reused.last_tick, 0);
  EXPECT_EQ(reused.aux, 0u);
}

TEST(LruQueue, MetadataChargesTheSideArrayOnlyWhenOptedIn) {
  constexpr std::uint64_t kIndex =
      3 * FlatMap<std::uint64_t, std::uint32_t>::kSlotBytes;
  LruQueue compact;
  LruQueue sided(LruQueue::kWithSide);
  EXPECT_FALSE(compact.has_side());
  for (std::uint64_t id = 0; id < 10; ++id) {
    compact.insert_mru(id, 1);
    sided.insert_mru(id, 1);
  }
  EXPECT_EQ(compact.metadata_bytes(), 10 * (sizeof(LruQueue::Node) + kIndex));
  EXPECT_EQ(sided.metadata_bytes(),
            10 * (sizeof(LruQueue::Node) + kIndex + sizeof(LruQueue::Side) +
                  sizeof(std::uint32_t)));
}

// Differential test: random operations against a std::list reference.
TEST(LruQueue, MatchesReferenceModelUnderRandomOps) {
  LruQueue q;
  std::list<std::uint64_t> ref;  // front = MRU
  auto ref_find = [&](std::uint64_t id) {
    return std::find(ref.begin(), ref.end(), id);
  };
  Rng rng(1234);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = rng.below(64);
    switch (rng.below(6)) {
      case 0:
        if (!q.contains(id)) {
          q.insert_mru(id, 1);
          ref.push_front(id);
        }
        break;
      case 1:
        if (!q.contains(id)) {
          q.insert_lru(id, 1);
          ref.push_back(id);
        }
        break;
      case 2:
        if (q.contains(id)) {
          q.touch_mru(id);
          ref.erase(ref_find(id));
          ref.push_front(id);
        }
        break;
      case 3:
        if (q.contains(id)) {
          q.demote_lru(id);
          ref.erase(ref_find(id));
          ref.push_back(id);
        }
        break;
      case 4:
        if (q.contains(id)) {
          q.move_up_one(id);
          auto it = ref_find(id);
          if (it != ref.begin()) {
            auto prev = std::prev(it);
            std::iter_swap(it, prev);
          }
        }
        break;
      case 5:
        if (!ref.empty() && rng.chance(0.5)) {
          EXPECT_EQ(q.pop_lru().id, ref.back());
          ref.pop_back();
        } else if (q.contains(id)) {
          q.erase(id);
          ref.erase(ref_find(id));
        }
        break;
    }
    ASSERT_EQ(q.count(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q.mru_id(), ref.front());
      ASSERT_EQ(q.lru_id(), ref.back());
    }
  }
  // Final full-order comparison.
  std::vector<std::uint64_t> got;
  q.for_each_from_lru([&](const LruQueue::Node& n) {
    got.push_back(n.id);
    return true;
  });
  std::vector<std::uint64_t> want(ref.rbegin(), ref.rend());
  EXPECT_EQ(got, want);
}

// ---- SegmentedQueue ------------------------------------------------------

using Seg3 = SegmentedQueue<3>;

std::vector<std::uint64_t> list_ids(const Seg3& q, std::size_t k) {
  std::vector<std::uint64_t> ids;
  q.for_each_from_lru(k, [&ids](const Seg3::Node& n) {
    ids.push_back(n.id);
    return true;
  });
  return ids;
}

TEST(SegmentedQueue, RelinkMovesBetweenListsAndKeepsFields) {
  Seg3 q;
  Seg3::Node& a = q.insert_mru(0, 1, 100, hash64(1));
  a.hits = 7;
  q.insert_lru(0, 2, 10, hash64(2));
  EXPECT_EQ(list_ids(q, 0), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(q.bytes(0), 110u);

  Seg3::Node* n = q.find_hashed(1, hash64(1));
  ASSERT_NE(n, nullptr);
  q.relink_mru(*n, 2);
  EXPECT_EQ(n->list(), 2u);
  EXPECT_EQ(n->hits, 7u);
  EXPECT_EQ(n->insert_pos, 1);  // relinks never rewrite the insertion mark
  EXPECT_EQ(q.bytes(0), 10u);
  EXPECT_EQ(q.count(0), 1u);
  EXPECT_EQ(q.bytes(2), 100u);
  EXPECT_EQ(q.count(2), 1u);
  EXPECT_EQ(q.used_bytes(), 110u);
  EXPECT_TRUE(q.check_structure());

  const Seg3::Node popped = q.pop_lru(2);
  EXPECT_EQ(popped.id, 1u);
  EXPECT_EQ(popped.hits, 7u);
  EXPECT_FALSE(q.contains(1));
  EXPECT_TRUE(q.empty(2));
  EXPECT_EQ(q.used_bytes(), 10u);
  EXPECT_TRUE(q.check_structure());
}

TEST(SegmentedQueue, MetadataFollowsSizeofDerivation) {
  Seg3 q;
  for (std::uint64_t id = 0; id < 10; ++id) {
    q.insert_mru(id % 3, id, 1, hash64(id));
  }
  (void)q.pop_lru(0);
  (void)q.pop_lru(1);
  // 10 slab nodes (8 live + 2 free-listed), 2 free-list entries, and 8
  // live index entries at 3 slots each.
  constexpr std::uint64_t kSlot =
      FlatMap<std::uint64_t, std::uint32_t>::kSlotBytes;
  EXPECT_EQ(q.metadata_bytes(), 10 * sizeof(Seg3::Node) +
                                    2 * sizeof(std::uint32_t) + 8 * 3 * kSlot);
  EXPECT_EQ(sizeof(Seg3::Node), 32u);
}

TEST(SegmentedQueue, RandomOpsMatchListModel) {
  // Reference: one std::list per segment (front = MRU) plus id -> size.
  std::array<std::list<std::uint64_t>, 3> model;
  std::vector<std::uint64_t> sizes(64, 0);
  const auto where = [&](std::uint64_t id) -> std::size_t {
    for (std::size_t k = 0; k < model.size(); ++k) {
      if (std::find(model[k].begin(), model[k].end(), id) != model[k].end()) {
        return k;
      }
    }
    return model.size();
  };
  Seg3 q;
  Rng rng(0x5e6);
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t id = rng.below(sizes.size());
    const std::size_t k = rng.below(3);
    const bool mru = rng.below(2) == 0;
    const std::size_t at = where(id);
    Seg3::Node* n = q.find_hashed(id, hash64(id));
    ASSERT_EQ(n != nullptr, at != model.size());
    if (n == nullptr) {
      sizes[id] = 1 + rng.below(1000);
      if (mru) {
        q.insert_mru(k, id, sizes[id], hash64(id));
        model[k].push_front(id);
      } else {
        q.insert_lru(k, id, sizes[id], hash64(id));
        model[k].push_back(id);
      }
    } else if (rng.below(4) == 0) {
      const std::size_t victim_list = at;
      const std::uint64_t victim = model[victim_list].back();
      EXPECT_EQ(q.pop_lru(victim_list).id, victim);
      model[victim_list].pop_back();
    } else {
      EXPECT_EQ(n->list(), at);
      model[at].remove(id);
      if (mru) {
        q.relink_mru(*n, k);
        model[k].push_front(id);
      } else {
        q.relink_lru(*n, k);
        model[k].push_back(id);
      }
    }
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < model.size(); ++j) {
      const std::vector<std::uint64_t> want(model[j].rbegin(),
                                            model[j].rend());
      ASSERT_EQ(list_ids(q, j), want) << "list " << j << " at step " << step;
      std::uint64_t bytes = 0;
      for (const std::uint64_t m : model[j]) bytes += sizes[m];
      ASSERT_EQ(q.bytes(j), bytes);
      ASSERT_EQ(q.count(j), model[j].size());
      total += bytes;
    }
    ASSERT_EQ(q.used_bytes(), total);
    if (step % 256 == 0) {
      ASSERT_TRUE(q.check_structure());
    }
  }
  EXPECT_TRUE(q.check_structure());
}

}  // namespace
}  // namespace cdn
