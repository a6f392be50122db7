// Fixture: acquires outer_ before node_ (the other TU does the reverse).
#include "pair.hpp"

namespace cdn {

void PairSpin::outer_then_node() {
  MutexLock a(outer_);
  SpinMutexLock b(node_);
  ++value_;
}

}  // namespace cdn
