#include "policies/insertion/lip.hpp"

namespace cdn {

bool LipCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool LipCache::access_hashed(const Request& req, std::uint64_t h) {
  if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
    ++n->hits;
    q_.touch_mru(*n);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  q_.insert_lru_hashed(req.id, req.size, h);
  return false;
}

}  // namespace cdn
