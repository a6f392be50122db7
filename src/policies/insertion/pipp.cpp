#include "policies/insertion/pipp.hpp"

namespace cdn {

bool PippCache::access(const Request& req) {
  if (LruQueue::Node* n = q_.find(req.id)) {
    ++n->hits;
    if (rng_.chance(p_prom_)) q_.move_up_one(req.id);
    return true;
  }
  if (!fits(req.size)) return false;
  make_room(req.size);
  q_.insert_lru(req.id, req.size);
  return false;
}

}  // namespace cdn
