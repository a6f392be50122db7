#include "policies/insertion/bip.hpp"

namespace cdn {

bool BipCache::access(const Request& req) {
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    q_.touch_mru(req.id);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  if (rng_.chance(epsilon_)) {
    q_.insert_mru(req.id, req.size);
  } else {
    q_.insert_lru(req.id, req.size);
  }
  return false;
}

}  // namespace cdn
