// Set dueling (Qureshi et al., ISCA 2007): the one primitive behind SCIP's
// ambient insertion/promotion weights (§1: "the probability of insertion
// position is adjusted based on hit rates in the shadow caches"), SB-LRU's
// per-size-class admission and DIP's insertion choice.
//
// An object cache has no leader sets, so a duel samples the request stream
// instead: two arms, each a small LRU queue fed its own hash slice, run one
// pure expert apiece, and a saturating counter (PSEL) tallies their misses
// against each other. Hosts differ only in construction arguments: which
// slices a duel owns, the counter's range, start and sign, the size class
// the duel is about, and whether an object too large for the arms still
// votes (DIP only). Header-inline and non-virtual: SCIP feeds two duels on
// every request.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "sim/lru_queue.hpp"
#include "trace/request.hpp"
#include "util/rng.hpp"

namespace cdn::duel {

/// kExcluded: the object is larger than the arm, so it misses in every arm
/// whatever the expert: no evidence about the policy under test.
enum class Outcome : std::uint8_t { kHit, kMiss, kExcluded };

/// BIP's bimodal epsilon: the share of misses a BIP arm inserts at MRU.
inline constexpr double kBipEpsilon = 1.0 / 32.0;

enum class Expert : std::uint8_t {
  kMruInsert,    ///< classic LRU: insert at MRU
  kBipInsert,    ///< BIP: insert at LRU, at MRU with probability kBipEpsilon
  kDemoteOnHit,  ///< MRU insert; a first residency hit demotes to LRU
  kRefuseClass,  ///< MRU insert, except objects of one size class
};

/// Inclusive byte range [lo, hi] of object sizes.
struct SizeRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  [[nodiscard]] bool contains(std::uint64_t size) const noexcept {
    return lo <= size && size <= hi;
  }
};

/// One sampled arm: a byte-bounded LRU queue running one expert.
class Arm {
 public:
  static constexpr std::uint64_t kBipSeed = 0xb1b0;

  Arm(std::uint64_t capacity, Expert expert, SizeRange refused = {},
      std::uint64_t bip_seed = kBipSeed)
      : capacity_(capacity),
        expert_(expert),
        refused_(refused),
        bip_rng_(bip_seed) {
    q_.reserve(reserve_hint(capacity));
  }

  /// Probes the index before the size check, as the main caches do: a
  /// resident id hits even when re-requested above the arm's capacity.
  Outcome access(const Request& req, std::uint64_t h) {
    if (LruQueue::Node* n = q_.find_hashed(req.id, h)) {
      ++n->hits;
      if (expert_ == Expert::kDemoteOnHit && n->hits == 1) {
        // Conservative P-ZRO expert: a first residency hit is consistent
        // with a dying pair; a second hit proves liveness.
        q_.demote_lru(*n);
      } else {
        q_.touch_mru(*n);
      }
      return Outcome::kHit;
    }
    if (req.size > capacity_) return Outcome::kExcluded;
    if (expert_ == Expert::kRefuseClass && refused_.contains(req.size)) {
      return Outcome::kMiss;
    }
    while (q_.used_bytes() + req.size > capacity_ && !q_.empty()) {
      (void)q_.pop_lru();
    }
    if (expert_ == Expert::kBipInsert && !bip_rng_.chance(kBipEpsilon)) {
      q_.insert_lru_hashed(req.id, req.size, h);
    } else {
      q_.insert_mru_hashed(req.id, req.size, h);
    }
    return Outcome::kMiss;
  }

  /// Live queue entries plus the arm's sizeof-derived fixed state.
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept {
    return q_.metadata_bytes() + sizeof(Arm);
  }

 private:
  std::uint64_t capacity_;
  Expert expert_;
  SizeRange refused_;
  LruQueue q_;
  Rng bip_rng_;
};

/// One duel's policy selector: a saturating counter and the two arms that
/// vote on it.
class Selector {
 public:
  /// The arms own slices `first` and `first + 1` of the slice value
  /// (h >> offset) & (2^shift - 1).
  struct Slices {
    int shift;
    int offset;
    std::uint64_t first;
  };
  /// psel saturates at ±max and starts at `init`. A miss in the low arm
  /// adds `low_miss_vote`; a miss in the high arm subtracts it.
  struct Counter {
    int max;
    int init;
    int low_miss_vote;
  };

  /// Only misses of objects in `size_class` vote (the refusing expert's
  /// class; everything by default). `excluded_is_miss` lets an object
  /// larger than the arms vote as a miss, as the published DIP does.
  Selector(std::uint64_t arm_capacity, Expert low, Expert high, Slices slices,
           Counter counter, SizeRange size_class = {},
           bool excluded_is_miss = false,
           std::uint64_t bip_seed = Arm::kBipSeed)
      : arms_{Arm(arm_capacity, low, size_class, bip_seed),
              Arm(arm_capacity, high, size_class, bip_seed)},
        slices_(slices),
        counter_(counter),
        psel_(counter.init),
        size_class_(size_class),
        excluded_is_miss_(excluded_is_miss) {}

  /// Routes a request in one of the duel's two slices to its arm; true when
  /// the counter took a vote (even one absorbed by saturation).
  bool feed(const Request& req, std::uint64_t h) {
    const std::uint64_t side =
        ((h >> slices_.offset) & ((1ULL << slices_.shift) - 1)) - slices_.first;
    if (side > 1) return false;
    ++feeds_;
    const Outcome o = arms_[side].access(req, h);
    if (o == Outcome::kHit || (o == Outcome::kExcluded && !excluded_is_miss_) ||
        !size_class_.contains(req.size)) {
      return false;
    }
    const int vote = counter_.low_miss_vote;
    psel_ = std::clamp(psel_ + (side == 0 ? vote : -vote), -counter_.max,
                       counter_.max);
    return true;
  }

  [[nodiscard]] int psel() const noexcept { return psel_; }
  /// Requests routed to either arm.
  [[nodiscard]] std::uint64_t feeds() const noexcept { return feeds_; }

  /// Both arms' metadata plus the selector's own fixed state.
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept {
    return arms_[0].metadata_bytes() + arms_[1].metadata_bytes() +
           fixed_bytes();
  }
  [[nodiscard]] static constexpr std::uint64_t fixed_bytes() noexcept {
    return sizeof(Selector) - 2 * sizeof(Arm);
  }

 private:
  std::array<Arm, 2> arms_;
  Slices slices_;
  Counter counter_;
  int psel_;
  std::uint64_t feeds_ = 0;
  SizeRange size_class_;
  bool excluded_is_miss_;
};

}  // namespace cdn::duel
