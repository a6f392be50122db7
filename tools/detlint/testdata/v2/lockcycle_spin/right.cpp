// Fixture: acquires node_ before outer_ (the other TU does the reverse).
#include "pair.hpp"

namespace cdn {

void PairSpin::node_then_outer() {
  SpinMutexLock a(node_);
  MutexLock b(outer_);
  --value_;
}

}  // namespace cdn
