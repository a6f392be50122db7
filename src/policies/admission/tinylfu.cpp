#include "policies/admission/tinylfu.hpp"

namespace cdn {

TinyLfuCache::TinyLfuCache(std::uint64_t capacity_bytes)
    : QueueCache(capacity_bytes) {}

bool TinyLfuCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool TinyLfuCache::access_hashed(const Request& req, std::uint64_t h) {
  // The sketch salts its own row hashes, so it cannot reuse `h`; add()
  // hands back the candidate's post-update estimate for the duel below.
  const std::uint8_t candidate = sketch_.add(req.id);
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    ++n->hits;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  // Admission duel against the coldest resident: the candidate must be at
  // least as popular as what it would push out.
  if (!q_.empty() && q_.used_bytes() + req.size > capacity_) {
    const std::uint8_t victim = sketch_.estimate(q_.lru_id());
    if (candidate < victim) {
      ++rejections_;
      return false;
    }
  }
  ++admissions_;
  make_room(req.size);
  q_.insert_mru_hashed(req.id, req.size, h);
  return false;
}

}  // namespace cdn
