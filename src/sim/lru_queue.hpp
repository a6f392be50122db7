// Byte-capacity LRU queue: the shared substrate of every queue-based policy.
//
// Storage is a slab (stable u32 indices + free list) holding intrusive
// doubly-linked-list nodes, plus a FlatMap from object id to slab index
// (open addressing — no per-entry heap node on the request hot path).
// All queue operations used by the paper's policies are O(1):
//   insert at MRU / insert at LRU          (bimodal insertion, LIP, BIP)
//   move to MRU (touch)                    (classic LRU promotion)
//   move one step toward MRU               (PIPP promotion)
//   pop from the LRU end                   (LRU victim selection)
//   erase by id                            (SCIP's REMOVE on promotion)
//
// A node is 32 bytes: id, size, hit count, insertion mark, policy flags and
// the two list links — the per-object state every queue policy reads. The
// state only a few baselines read lives in an opt-in side array indexed by
// slab slot (see Side and LruQueue(WithSide)): the last-access tick, one
// policy-defined scalar, and the dense occupancy vector behind O(1) uniform
// random sampling (RANDOM's, LHD's and LRB's sampled eviction). A queue
// built without it writes no ages and pays no dense swap on eviction.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/attr.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace cdn {

namespace audit {
class Inspector;
}  // namespace audit

class LruQueue {
 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  struct Node {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    std::uint32_t hits = 0;       ///< hits during the current residency
    std::uint8_t insert_pos = 1;  ///< 1 = inserted at MRU, 0 = at LRU
    std::uint8_t flags = 0;       ///< policy-defined bits
   private:
    std::uint32_t prev_ = kNull;
    std::uint32_t next_ = kNull;
    friend class LruQueue;
    friend class audit::Inspector;
  };

  /// Per-slot state outside the node, kept only by a queue built with
  /// kWithSide. Relinks and reinserts preserve it like the node's fields.
  struct Side {
    std::int64_t last_tick = 0;  ///< logical time of last access
    std::uint64_t aux = 0;       ///< policy-defined scalar
   private:
    std::uint32_t dense_pos_ = kNull;  ///< this slot's index in dense_
    friend class LruQueue;
    friend class audit::Inspector;
  };

  /// Construction-time opt-in for the side array. Only the policies that
  /// read ages or `aux`, or call sample(), pass it.
  struct WithSide {};
  static constexpr WithSide kWithSide{};

  LruQueue() = default;
  explicit LruQueue(WithSide) : has_side_(true) {}

  [[nodiscard]] bool has_side() const noexcept { return has_side_; }
  /// Side record of a live node. Requires has_side(); same lifetime as `n`.
  [[nodiscard]] Side& side(const Node& n) noexcept {
    assert(has_side_);
    return side_[slot_of(n)];
  }
  [[nodiscard]] const Side& side(const Node& n) const noexcept {
    assert(has_side_);
    return side_[slot_of(n)];
  }
  /// Side record of the node most recently removed by pop_lru() or erase(),
  /// so a victim's ages stay readable after its slot is freed. Requires
  /// has_side(); overwritten by the next removal.
  [[nodiscard]] const Side& removed_side() const noexcept {
    assert(has_side_);
    return removed_side_;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.contains(id);
  }
  /// contains() with the caller-precomputed hash64(id).
  [[nodiscard]] bool contains_hashed(std::uint64_t id, std::uint64_t h) const {
    return index_.find_hashed(id, h) != nullptr;
  }
  /// Returns the node for `id` or nullptr. The pointer is invalidated by any
  /// mutation of the queue.
  [[nodiscard]] Node* find(std::uint64_t id);
  [[nodiscard]] const Node* find(std::uint64_t id) const;
  /// find() with the caller-precomputed hash64(id) — the per-request path
  /// hashes each id exactly once and threads the hash through every probe.
  [[nodiscard]] CDN_HOT Node* find_hashed(std::uint64_t id, std::uint64_t h);

  /// Inserts a new object (must not be present). Returns its node.
  Node& insert_mru(std::uint64_t id, std::uint64_t size);
  Node& insert_lru(std::uint64_t id, std::uint64_t size);
  CDN_HOT Node& insert_mru_hashed(std::uint64_t id, std::uint64_t size,
                                  std::uint64_t h);
  CDN_HOT Node& insert_lru_hashed(std::uint64_t id, std::uint64_t size,
                                  std::uint64_t h);

  /// Moves an existing object to the MRU end. No-op if absent.
  void touch_mru(std::uint64_t id);
  /// Moves an existing object one step toward MRU (PIPP). No-op if absent
  /// or already MRU.
  void move_up_one(std::uint64_t id);
  /// Moves an existing object to the LRU end (demotion). No-op if absent.
  void demote_lru(std::uint64_t id);

  // Node-based relinks: `n` must be a live node obtained from find() with no
  // intervening mutation. They skip the index probe entirely (the caller
  // already paid it) — the found-node fast path of every queue policy.
  CDN_HOT void touch_mru(Node& n);
  CDN_HOT void demote_lru(Node& n);

  /// Re-inserts a resident object at the MRU / LRU end IN PLACE: same slab
  /// slot, same index entry, `insert_pos` updated — equivalent to the
  /// erase() + insert_*() + field-restore sequence SCIP's PROMOTE once paid
  /// (two index probes and a backward-shift delete), minus all of it. Every
  /// per-object field other than `insert_pos` is preserved, the side record
  /// included; callers that relied on erase+insert zeroing `hits` must now
  /// set it explicitly (AdvisedLruCache does).
  CDN_HOT Node& reinsert_mru(Node& n);
  CDN_HOT Node& reinsert_lru(Node& n);

  /// Removes and returns the LRU-end node. Queue must be non-empty.
  CDN_HOT Node pop_lru();
  /// pop_lru() that also reports hash64(victim.id), which it computed for
  /// its own index erase — the eviction path reuses it for the history
  /// lists instead of re-hashing the victim id.
  CDN_HOT Node pop_lru(std::uint64_t* victim_hash_out);
  /// Removes `id`; returns true and copies the node into `out` if present.
  bool erase(std::uint64_t id, Node* out = nullptr);
  CDN_HOT bool erase_hashed(std::uint64_t id, std::uint64_t h,
                            Node* out = nullptr);

  /// Pre-sizes the slab, side array and hash index for `n` resident
  /// objects so the warm-up phase does not pay reallocation/rehash stalls;
  /// the steady-state request path allocates nothing either way (slab free
  /// list + constant-occupancy index). Layout-only: never changes behavior.
  void reserve(std::size_t n);

  /// Advisory prefetch of the index home slot for `id` (see FlatMap).
  void prefetch(std::uint64_t id) const noexcept {
    index_.prefetch_hashed(hash64(id));
  }
  void prefetch_hashed(std::uint64_t h) const noexcept {
    index_.prefetch_hashed(h);
  }

  /// Id at the LRU end (the next victim). Queue must be non-empty. Served
  /// from the tail-id shadow: no node read, so the eviction lookahead can
  /// name the victim and start its dependent prefetches for free.
  [[nodiscard]] std::uint64_t lru_id() const noexcept {
    assert(tail_ != kNull);
    assert(slab_[tail_].id == tail_id_);
    return tail_id_;
  }
  /// insert_pos of the LRU-end node (1 = was inserted at MRU), also served
  /// from the tail shadow. Tells an advisor's eviction lookahead which
  /// history list the victim will land in without reading the cold node.
  [[nodiscard]] std::uint8_t lru_insert_pos() const noexcept {
    assert(tail_ != kNull);
    assert(slab_[tail_].insert_pos == tail_pos_);
    return tail_pos_;
  }
  [[nodiscard]] std::uint64_t mru_id() const;

  /// Advisory prefetch of the LRU-end node itself (the next victim): the
  /// tail sits untouched since it last moved, so the eviction read is
  /// almost always cold unless hinted while earlier work retires.
  void prefetch_lru_node() const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (tail_ != kNull) __builtin_prefetch(&slab_[tail_]);
#endif
  }

  [[nodiscard]] std::size_t count() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return index_.empty(); }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return used_bytes_;
  }

  /// Uniformly random resident node. Requires has_side(); queue must be
  /// non-empty.
  [[nodiscard]] Node& sample(Rng& rng);

  /// Visits nodes from the LRU end toward MRU until fn returns false.
  void for_each_from_lru(const std::function<bool(const Node&)>& fn) const;

  /// Approximate in-memory metadata footprint (bytes) for the resource
  /// experiments: slab nodes + hash index overhead, plus the side record and
  /// dense slot of a queue built with kWithSide, counted per live entry.
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept;

  /// Test-only fault injection: skews the byte accounting without touching
  /// the list, so the audit harness can prove it detects such corruption.
  /// Never call outside tests.
  void debug_corrupt_used_bytes(std::int64_t delta) noexcept {
    used_bytes_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(used_bytes_) + delta);
  }

 private:
  friend class audit::Inspector;

  [[nodiscard]] std::uint32_t slot_of(const Node& n) const noexcept {
    return static_cast<std::uint32_t>(&n - slab_.data());
  }
  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  void link_mru(std::uint32_t idx);
  void link_lru(std::uint32_t idx);
  void unlink(std::uint32_t idx);

  std::vector<Node> slab_;
  std::vector<std::uint32_t> free_list_;
  FlatMap<std::uint64_t, std::uint32_t> index_;
  std::uint32_t head_ = kNull;  ///< MRU end
  std::uint32_t tail_ = kNull;  ///< LRU end
  std::uint64_t used_bytes_ = 0;
  /// Shadows of slab_[tail_].{id, insert_pos}, maintained wherever tail_
  /// moves (the prev node's line is already touched there, so the copies
  /// are free). Let lru_id()/lru_insert_pos() — and the eviction lookahead
  /// built on them — name the next victim and its history-list side
  /// without a dependent read of the cold tail node.
  std::uint64_t tail_id_ = 0;
  std::uint8_t tail_pos_ = 1;
  // Side array, empty unless has_side_: one record per slab slot, and the
  // occupied slots in dense order for sample(). Kept behind the hot fields.
  bool has_side_ = false;
  std::vector<Side> side_;
  std::vector<std::uint32_t> dense_;
  Side removed_side_;
};

/// Pre-reserve hint for a slab/index sized in bytes: assumes ~4 KiB objects
/// (conservative for CDN traces), capped so pathological capacities (the
/// boundary tests construct caches at 2^63 bytes) don't balloon memory.
/// Layout-only: it moves the warm-up reallocations to construction time.
[[nodiscard]] inline std::size_t reserve_hint(std::uint64_t capacity_bytes) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(capacity_bytes / 4096 + 1, 1ULL << 16));
}

}  // namespace cdn
