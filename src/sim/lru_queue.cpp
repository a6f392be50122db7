#include "sim/lru_queue.hpp"

#include <cassert>

namespace cdn {

LruQueue::Node* LruQueue::find(std::uint64_t id) {
  return find_hashed(id, hash64(id));
}

const LruQueue::Node* LruQueue::find(std::uint64_t id) const {
  const std::uint32_t* idx = index_.find(id);
  return idx == nullptr ? nullptr : &slab_[*idx];
}

LruQueue::Node* LruQueue::find_hashed(std::uint64_t id, std::uint64_t h) {
  const std::uint32_t* idx = index_.find_hashed(id, h);
  return idx == nullptr ? nullptr : &slab_[*idx];
}

std::uint32_t LruQueue::alloc_node() {
  std::uint32_t idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    if (has_side_) side_.emplace_back();
  }
  if (has_side_) {
    Side& s = side_[idx];
    s = Side{};  // reset for reuse
    s.dense_pos_ = static_cast<std::uint32_t>(dense_.size());
    dense_.push_back(idx);
  }
  return idx;
}

void LruQueue::free_node(std::uint32_t idx) {
  if (has_side_) {
    // Swap-remove from the dense occupancy vector.
    const std::uint32_t pos = side_[idx].dense_pos_;
    const std::uint32_t last = dense_.back();
    dense_[pos] = last;
    side_[last].dense_pos_ = pos;
    dense_.pop_back();
    removed_side_ = side_[idx];
  }
  slab_[idx] = Node{};  // reset for reuse
  free_list_.push_back(idx);
}

void LruQueue::link_mru(std::uint32_t idx) {
  Node& n = slab_[idx];
  n.prev_ = kNull;
  n.next_ = head_;
  if (head_ != kNull) slab_[head_].prev_ = idx;
  head_ = idx;
  if (tail_ == kNull) {
    tail_ = idx;
    tail_id_ = n.id;
    tail_pos_ = n.insert_pos;
  }
}

void LruQueue::link_lru(std::uint32_t idx) {
  Node& n = slab_[idx];
  n.next_ = kNull;
  n.prev_ = tail_;
  if (tail_ != kNull) slab_[tail_].next_ = idx;
  tail_ = idx;
  tail_id_ = n.id;
  tail_pos_ = n.insert_pos;
  if (head_ == kNull) head_ = idx;
}

void LruQueue::unlink(std::uint32_t idx) {
  Node& n = slab_[idx];
  if (n.prev_ != kNull) {
    slab_[n.prev_].next_ = n.next_;
  } else {
    head_ = n.next_;
  }
  if (n.next_ != kNull) {
    slab_[n.next_].prev_ = n.prev_;
  } else {
    tail_ = n.prev_;
    if (n.prev_ != kNull) {
      tail_id_ = slab_[n.prev_].id;
      tail_pos_ = slab_[n.prev_].insert_pos;
    }
  }
  n.prev_ = n.next_ = kNull;
}

LruQueue::Node& LruQueue::insert_mru(std::uint64_t id, std::uint64_t size) {
  return insert_mru_hashed(id, size, hash64(id));
}

LruQueue::Node& LruQueue::insert_lru(std::uint64_t id, std::uint64_t size) {
  return insert_lru_hashed(id, size, hash64(id));
}

LruQueue::Node& LruQueue::insert_mru_hashed(std::uint64_t id,
                                            std::uint64_t size,
                                            std::uint64_t h) {
  assert(!contains(id));
  const std::uint32_t idx = alloc_node();
  Node& n = slab_[idx];
  n.id = id;
  n.size = size;
  n.insert_pos = 1;
  index_.insert_hashed(id, idx, h);
  used_bytes_ += size;
  link_mru(idx);
  return n;
}

LruQueue::Node& LruQueue::insert_lru_hashed(std::uint64_t id,
                                            std::uint64_t size,
                                            std::uint64_t h) {
  assert(!contains(id));
  const std::uint32_t idx = alloc_node();
  Node& n = slab_[idx];
  n.id = id;
  n.size = size;
  n.insert_pos = 0;
  index_.insert_hashed(id, idx, h);
  used_bytes_ += size;
  link_lru(idx);
  return n;
}

void LruQueue::touch_mru(std::uint64_t id) {
  const std::uint32_t* p = index_.find(id);
  if (p == nullptr) return;
  const std::uint32_t idx = *p;
  if (head_ == idx) return;
  unlink(idx);
  link_mru(idx);
}

void LruQueue::touch_mru(Node& n) {
  const std::uint32_t idx = slot_of(n);
  if (head_ == idx) return;
  unlink(idx);
  link_mru(idx);
}

void LruQueue::demote_lru(Node& n) {
  const std::uint32_t idx = slot_of(n);
  if (tail_ == idx) return;
  unlink(idx);
  link_lru(idx);
}

LruQueue::Node& LruQueue::reinsert_mru(Node& n) {
  const std::uint32_t idx = slot_of(n);
  n.insert_pos = 1;  // before relink: link_* reads it for the tail shadow
  unlink(idx);
  link_mru(idx);
  return n;
}

LruQueue::Node& LruQueue::reinsert_lru(Node& n) {
  const std::uint32_t idx = slot_of(n);
  n.insert_pos = 0;  // before relink: link_* reads it for the tail shadow
  unlink(idx);
  link_lru(idx);
  return n;
}

void LruQueue::move_up_one(std::uint64_t id) {
  const std::uint32_t* found = index_.find(id);
  if (found == nullptr) return;
  const std::uint32_t idx = *found;
  const std::uint32_t prev = slab_[idx].prev_;
  if (prev == kNull) return;  // already MRU
  // Swap positions of idx and prev in the list by relinking idx before prev.
  unlink(idx);
  Node& n = slab_[idx];
  Node& p = slab_[prev];
  n.prev_ = p.prev_;
  n.next_ = prev;
  if (p.prev_ != kNull) {
    slab_[p.prev_].next_ = idx;
  } else {
    head_ = idx;
  }
  p.prev_ = idx;
}

void LruQueue::demote_lru(std::uint64_t id) {
  const std::uint32_t* p = index_.find(id);
  if (p == nullptr) return;
  const std::uint32_t idx = *p;
  if (tail_ == idx) return;
  unlink(idx);
  link_lru(idx);
}

LruQueue::Node LruQueue::pop_lru() {
  std::uint64_t unused_hash = 0;
  return pop_lru(&unused_hash);
}

LruQueue::Node LruQueue::pop_lru(std::uint64_t* victim_hash_out) {
  assert(tail_ != kNull);
  const std::uint32_t idx = tail_;
#if defined(__GNUC__) || defined(__clang__)
  // free_node's swap-remove writes through side_[dense_.back()] — a random
  // slot, cold almost every eviction. Its address is known before the
  // victim read / hash / index erase chain; start the fetch under them.
  if (has_side_) __builtin_prefetch(&side_[dense_.back()], 1);
#endif
  // The victim's id comes from the tail shadow, so its hash and index
  // erase do not wait on the read of the tail node.
  const std::uint64_t h = hash64(tail_id_);
  index_.erase_hashed(tail_id_, h);
  Node copy = slab_[idx];
  unlink(idx);
  used_bytes_ -= copy.size;
  free_node(idx);
  // Next-victim lookahead: the new tail's line is hot (unlink just wrote
  // it); start fetching its index home and its predecessor now, so the
  // next eviction's index erase and unlink find them cached.
  if (tail_ != kNull) {
    index_.prefetch_hashed(hash64(tail_id_));
#if defined(__GNUC__) || defined(__clang__)
    const std::uint32_t prev = slab_[tail_].prev_;
    if (prev != kNull) __builtin_prefetch(&slab_[prev], 1);
#endif
  }
  *victim_hash_out = h;
  return copy;
}

bool LruQueue::erase(std::uint64_t id, Node* out) {
  return erase_hashed(id, hash64(id), out);
}

bool LruQueue::erase_hashed(std::uint64_t id, std::uint64_t h, Node* out) {
  const std::uint32_t* p = index_.find_hashed(id, h);
  if (p == nullptr) return false;
  const std::uint32_t idx = *p;
  if (out) *out = slab_[idx];
  unlink(idx);
  used_bytes_ -= slab_[idx].size;
  index_.erase_hashed(id, h);
  free_node(idx);
  return true;
}

void LruQueue::reserve(std::size_t n) {
  slab_.reserve(n);
  free_list_.reserve(n);
  index_.reserve(n);
  if (has_side_) {
    side_.reserve(n);
    dense_.reserve(n);
  }
}

std::uint64_t LruQueue::mru_id() const {
  assert(head_ != kNull);
  return slab_[head_].id;
}

LruQueue::Node& LruQueue::sample(Rng& rng) {
  assert(has_side_ && !dense_.empty());
  return slab_[dense_[rng.below(dense_.size())]];
}

void LruQueue::for_each_from_lru(
    const std::function<bool(const Node&)>& fn) const {
  for (std::uint32_t idx = tail_; idx != kNull; idx = slab_[idx].prev_) {
    if (!fn(slab_[idx])) return;
  }
}

// detlint:allow(accounting, slab_/index_ are the sizeof-derived kPerEntry term and side_/dense_ the kSidePerEntry term; free-listed slots hold no live metadata)
std::uint64_t LruQueue::metadata_bytes() const noexcept {
  // Slab node + flat-index share, plus side record + dense slot when the
  // side array is on. The index share is three inline slots: the
  // open-addressing table runs between 1/4 and 1/2 occupancy (max load 1/2
  // with power-of-two doubling), so 3x amortizes the slack at its midpoint.
  // Count live entries only: free-listed slab slots hold no object metadata,
  // and counting them overstated the footprint after churn (the slab is a
  // high-water mark, the index is the live population).
  constexpr std::uint64_t kPerEntry =
      sizeof(Node) + 3 * FlatMap<std::uint64_t, std::uint32_t>::kSlotBytes;
  constexpr std::uint64_t kSidePerEntry = sizeof(Side) + sizeof(std::uint32_t);
  return static_cast<std::uint64_t>(index_.size()) *
         (kPerEntry + (has_side_ ? kSidePerEntry : 0));
}

}  // namespace cdn
