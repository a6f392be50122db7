// Byte-accounted segmented queue: K intrusive LRU lists over one node slab
// and ONE id index — the substrate of the four-segment S4LRU hosts.
//
// A stack of K separate LruQueues gives every segment its own slab and its
// own id -> slot index, so each time an object changes segment (an S4LRU
// promotion, every step of the demotion cascade) the move costs an index
// erase plus an index insert, and the host needs yet another id -> level
// map to know which queue to probe. Here the K lists share one slab
// (stable u32 slots + free list) and one FlatMap id -> slot, and every node
// records the list it is on:
//
//   find            one probe, which also names the node's list;
//   insert          at the MRU or LRU end of list k: one index insert;
//   relink          a found node to the MRU or LRU end of list k: pointer
//                   surgery only — no probe, no allocation;
//   pop_lru(k)      evict list k's LRU node: one index erase;
//   walk            list k from the LRU end toward MRU.
//
// Each list keeps its own head, tail, byte count and object count, so a
// host enforces per-segment byte budgets in O(1). Nodes carry the
// per-object metadata the hosts read (hit count, insertion mark) in 32
// bytes — no access ticks, which neither host reads; relinks preserve every
// field, so a demoted object keeps its statistics.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/attr.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace cdn {

template <std::size_t K>
class SegmentedQueue {
  static_assert(K >= 1 && K <= 255, "list tags are stored in one byte");

 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  struct Node {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    std::uint32_t hits = 0;       ///< hits during the current residency
    std::uint8_t insert_pos = 1;  ///< 1 = inserted at an MRU end, 0 = LRU

    /// The list this node is linked into.
    [[nodiscard]] std::size_t list() const noexcept { return list_; }

   private:
    std::uint8_t list_ = 0;
    std::uint32_t prev_ = kNull;  ///< toward MRU
    std::uint32_t next_ = kNull;  ///< toward LRU
    friend class SegmentedQueue;
  };

  SegmentedQueue() = default;

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.contains(id);
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id, std::uint64_t h) const {
    return index_.find_hashed(id, h) != nullptr;
  }

  /// The node for `id` (with the caller-precomputed hash64(id)), or
  /// nullptr. Invalidated by any insert or pop; relinks keep it valid.
  [[nodiscard]] CDN_HOT Node* find_hashed(std::uint64_t id, std::uint64_t h) {
    const std::uint32_t* slot = index_.find_hashed(id, h);
    return slot == nullptr ? nullptr : &slab_[*slot];
  }

  /// Inserts a new object (must not be present) at the MRU / LRU end of
  /// list k and returns its node; `insert_pos` records which end.
  CDN_HOT Node& insert_mru(std::size_t k, std::uint64_t id, std::uint64_t size,
                           std::uint64_t h) {
    Node& n = insert_node(id, size, h);
    n.insert_pos = 1;
    link_mru(k, slot_of(n));
    return n;
  }
  CDN_HOT Node& insert_lru(std::size_t k, std::uint64_t id, std::uint64_t size,
                           std::uint64_t h) {
    Node& n = insert_node(id, size, h);
    n.insert_pos = 0;
    link_lru(k, slot_of(n));
    return n;
  }

  /// Moves a live node to the MRU / LRU end of list k (k may be its own
  /// list). Every node field is preserved, `insert_pos` included.
  CDN_HOT void relink_mru(Node& n, std::size_t k) {
    const std::uint32_t slot = slot_of(n);
    unlink(slot);
    link_mru(k, slot);
  }
  CDN_HOT void relink_lru(Node& n, std::size_t k) {
    const std::uint32_t slot = slot_of(n);
    unlink(slot);
    link_lru(k, slot);
  }

  /// The LRU-end node of list k, which must be non-empty.
  [[nodiscard]] CDN_HOT Node& lru(std::size_t k) {
    assert(lists_[k].tail != kNull);
    return slab_[lists_[k].tail];
  }

  /// Removes and returns the LRU-end node of list k (must be non-empty).
  CDN_HOT Node pop_lru(std::size_t k) {
    const std::uint32_t slot = lists_[k].tail;
    assert(slot != kNull);
    const Node copy = slab_[slot];
    unlink(slot);
    index_.erase_hashed(copy.id, hash64(copy.id));
    free_node(slot);
    return copy;
  }

  /// Visits list k from the LRU end toward MRU while fn(const Node&)
  /// returns true. Returns false iff fn stopped the walk.
  template <typename Fn>
  bool for_each_from_lru(std::size_t k, Fn&& fn) const {
    for (std::uint32_t s = lists_[k].tail; s != kNull; s = slab_[s].prev_) {
      if (!fn(slab_[s])) return false;
    }
    return true;
  }

  /// Advisory prefetch of the index home slot for a key hashing to `h`.
  void prefetch_hashed(std::uint64_t h) const noexcept {
    index_.prefetch_hashed(h);
  }

  [[nodiscard]] std::uint64_t bytes(std::size_t k) const noexcept {
    return lists_[k].bytes;
  }
  [[nodiscard]] std::size_t count(std::size_t k) const noexcept {
    return lists_[k].count;
  }
  [[nodiscard]] bool empty(std::size_t k) const noexcept {
    return lists_[k].count == 0;
  }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept {
    return used_bytes_;
  }

  /// Approximate in-memory footprint: the whole slab (live and free-listed
  /// nodes alike — it is a high-water mark), the free list, and the index
  /// at 3 inline slots per live entry (the table runs between 1/4 and 1/2
  /// occupancy; 3x amortizes the slack at its midpoint).
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept {
    return static_cast<std::uint64_t>(slab_.size()) * sizeof(Node) +
           static_cast<std::uint64_t>(free_list_.size()) *
               sizeof(std::uint32_t) +
           static_cast<std::uint64_t>(index_.size()) * 3 *
               FlatMap<std::uint64_t, std::uint32_t>::kSlotBytes;
  }

  /// Structural audit for tests: every list is a well-formed chain of
  /// nodes tagged with its number, per-list byte and object counts match
  /// the chains, live slots and free slots partition the slab, and the
  /// index maps exactly the live ids to their slots.
  [[nodiscard]] bool check_structure() const {
    std::vector<std::uint8_t> seen(slab_.size(), 0);
    std::size_t live = 0;
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < K; ++k) {
      const List& l = lists_[k];
      std::uint64_t bytes = 0;
      std::size_t count = 0;
      std::uint32_t prev = kNull;
      for (std::uint32_t s = l.head; s != kNull; s = slab_[s].next_) {
        if (s >= slab_.size() || seen[s] != 0) return false;
        seen[s] = 1;
        const Node& n = slab_[s];
        if (n.list() != k || n.prev_ != prev) return false;
        const std::uint32_t* slot = index_.find(n.id);
        if (slot == nullptr || *slot != s) return false;
        bytes += n.size;
        ++count;
        prev = s;
      }
      if (l.tail != prev || l.bytes != bytes || l.count != count) {
        return false;
      }
      live += count;
      total += bytes;
    }
    for (const std::uint32_t s : free_list_) {
      if (s >= slab_.size() || seen[s] != 0) return false;
      seen[s] = 1;
    }
    return live == index_.size() && total == used_bytes_ &&
           live + free_list_.size() == slab_.size();
  }

 private:
  struct List {
    std::uint32_t head = kNull;  ///< MRU end
    std::uint32_t tail = kNull;  ///< LRU end
    std::uint64_t bytes = 0;
    std::size_t count = 0;
  };

  [[nodiscard]] std::uint32_t slot_of(const Node& n) const noexcept {
    return static_cast<std::uint32_t>(&n - slab_.data());
  }

  Node& insert_node(std::uint64_t id, std::uint64_t size, std::uint64_t h) {
    assert(!contains(id));
    const std::uint32_t slot = alloc_node();
    Node& n = slab_[slot];
    n.id = id;
    n.size = size;
    index_.insert_hashed(id, slot, h);
    used_bytes_ += size;
    return n;
  }

  std::uint32_t alloc_node() {
    if (!free_list_.empty()) {
      const std::uint32_t slot = free_list_.back();
      free_list_.pop_back();
      return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  void free_node(std::uint32_t slot) {
    used_bytes_ -= slab_[slot].size;
    slab_[slot] = Node{};  // reset for reuse
    free_list_.push_back(slot);
  }

  void link_mru(std::size_t k, std::uint32_t slot) {
    assert(k < K);
    List& l = lists_[k];
    Node& n = slab_[slot];
    n.list_ = static_cast<std::uint8_t>(k);
    n.prev_ = kNull;
    n.next_ = l.head;
    if (l.head != kNull) slab_[l.head].prev_ = slot;
    l.head = slot;
    if (l.tail == kNull) l.tail = slot;
    l.bytes += n.size;
    ++l.count;
  }

  void link_lru(std::size_t k, std::uint32_t slot) {
    assert(k < K);
    List& l = lists_[k];
    Node& n = slab_[slot];
    n.list_ = static_cast<std::uint8_t>(k);
    n.next_ = kNull;
    n.prev_ = l.tail;
    if (l.tail != kNull) slab_[l.tail].next_ = slot;
    l.tail = slot;
    if (l.head == kNull) l.head = slot;
    l.bytes += n.size;
    ++l.count;
  }

  void unlink(std::uint32_t slot) {
    Node& n = slab_[slot];
    List& l = lists_[n.list_];
    if (n.prev_ != kNull) {
      slab_[n.prev_].next_ = n.next_;
    } else {
      l.head = n.next_;
    }
    if (n.next_ != kNull) {
      slab_[n.next_].prev_ = n.prev_;
    } else {
      l.tail = n.prev_;
    }
    n.prev_ = n.next_ = kNull;
    l.bytes -= n.size;
    --l.count;
  }

  std::vector<Node> slab_;
  std::vector<std::uint32_t> free_list_;
  FlatMap<std::uint64_t, std::uint32_t> index_;
  std::array<List, K> lists_{};
  std::uint64_t used_bytes_ = 0;
};

}  // namespace cdn
