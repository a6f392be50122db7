#include "policies/replacement/lru.hpp"

namespace cdn {

bool LruCache::access(const Request& req) {
  return access_hashed(req, hash64(req.id));
}

bool LruCache::access_hashed(const Request& req, std::uint64_t h) {
  if (LruQueue::Node* node = q_.find_hashed(req.id, h)) {
    ++node->hits;
    q_.touch_mru(*node);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  q_.insert_mru_hashed(req.id, req.size, h);
  return false;
}

}  // namespace cdn
