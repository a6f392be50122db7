// DIP — Dynamic Insertion Policy (Qureshi et al., ISCA 2007).
//
// DIP set-duels LRU(MRU-insertion) against BIP and lets the winner steer
// the main cache. Hardware DIP dedicates leader *sets*; an object cache has
// no sets, so we use the standard sampling adaptation: one duel::Selector
// duel (sim/duel.hpp) whose two arms (1/32 of the capacity each) receive
// the sampled request slices hash(id) % 64 == 0 and == 1, one running
// MRU-insertion, one BIP. Its saturating policy-selector counter (PSEL)
// counts their misses against each other and the full-size main cache
// follows the current winner. Unlike SCIP's and SB-LRU's duels, an object
// too large for the arms still votes as a miss: the published DIP has no
// notion of object size.
#pragma once

#include "sim/duel.hpp"
#include "sim/queue_cache.hpp"
#include "util/rng.hpp"

namespace cdn {

class DipCache final : public QueueCache {
 public:
  explicit DipCache(std::uint64_t capacity_bytes, std::uint64_t seed = 31);

  [[nodiscard]] std::string name() const override { return "DIP"; }
  bool access(const Request& req) override;
  bool access_hashed(const Request& req, std::uint64_t h) override;
  [[nodiscard]] std::uint64_t metadata_bytes() const override;

  /// True while BIP is winning the duel (exposed for tests).
  [[nodiscard]] bool bip_winning() const noexcept { return duel_.psel() < 0; }

 private:
  duel::Selector duel_;  ///< psel > 0: LRU winning; < 0: BIP winning
  Rng rng_;
};

}  // namespace cdn
