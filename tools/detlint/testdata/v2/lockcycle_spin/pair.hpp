// Fixture: a Mutex and a SpinMutex acquired in opposite orders by two TUs.
// The spin-then-park lock is a capability like any other, so the cycle
// must show up exactly as it does between two plain mutexes.
#pragma once

namespace cdn {

class PairSpin {
 public:
  void outer_then_node();
  void node_then_outer();

 private:
  Mutex outer_;
  SpinMutex node_;
  int value_ = 0;
};

}  // namespace cdn
