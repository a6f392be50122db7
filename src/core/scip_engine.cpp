#include "core/scip_engine.hpp"

#include <algorithm>
#include <cmath>

namespace cdn {

namespace {
std::uint64_t half_capacity(std::uint64_t cache_capacity,
                            const ScipParams& p) {
  return ScipAdvisor::history_list_capacity(cache_capacity,
                                            p.history_fraction);
}
std::uint64_t monitor_capacity(std::uint64_t cache_capacity,
                               const ScipParams& p) {
  return std::max<std::uint64_t>(cache_capacity >> p.monitor_cap_shift, 1);
}
}  // namespace

std::uint64_t ScipAdvisor::history_list_capacity(
    std::uint64_t cache_capacity, double history_fraction) noexcept {
  // floor(fraction * capacity) in 64.32 fixed point: exact for every u64
  // capacity, unlike `fraction * double(capacity)` which loses integer
  // precision above 2^53 and rounds by the double rounding mode.
  const auto num = static_cast<std::uint64_t>(
      std::llround(history_fraction * 4294967296.0));  // fraction * 2^32
  const auto scaled = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(cache_capacity) * num) >> 32);
  return std::max<std::uint64_t>(scaled, 1);
}

ScipAdvisor::ScipAdvisor(std::uint64_t cache_capacity, ScipParams params)
    : params_(params),
      lr_(params.lr),
      w_miss_(0.9),
      w_prom_(0.95),
      hm_(half_capacity(cache_capacity, params)),
      hl_(half_capacity(cache_capacity, params)),
      // Neutral miss prior (the duel resolves within a few thousand
      // requests); MRU-favoring promotion prior — demotion must prove
      // itself first.
      miss_duel_(monitor_capacity(cache_capacity, params),
                 duel::Expert::kMruInsert, duel::Expert::kBipInsert,
                 {params.monitor_slice_shift, 0, 0}, {params.psel_max, 0, -1}),
      prom_duel_(monitor_capacity(cache_capacity, params),
                 duel::Expert::kMruInsert, duel::Expert::kDemoteOnHit,
                 {params.monitor_slice_shift, params.monitor_slice_shift, 0},
                 {params.prom_psel_max, params.prom_psel_max, -1}),
      rng_(params.seed) {
  if (monitor_capacity(cache_capacity, params) < params.monitor_min_bytes) {
    params_.use_monitors = false;
  }
  hm_.reserve(reserve_hint(hm_.capacity()));
  hl_.reserve(reserve_hint(hl_.capacity()));
  update_weights_from_psel();
}

void ScipAdvisor::update_weights_from_psel() {
  // Bimodal, not graded: the miss-ratio curve over a fixed mixing
  // probability has an interior maximum between the BIP dip and pure LRU,
  // so intermediate weights underperform both experts. SELECT therefore
  // executes the duel winner: pure MRU insertion, or BIP (epsilon of
  // misses still MRU) when LRU insertion wins; promotions demote with a
  // small residual epsilon when demotion wins.
  w_miss_ = miss_duel_.psel() >= params_.miss_threshold
                ? 1.0
                : params_.miss_weight_floor;
  w_prom_ = prom_duel_.psel() >= params_.prom_threshold ? 1.0 : 0.05;
}

void ScipAdvisor::sample_metrics(obs::MetricRegistry& reg) {
  // The two-expert execution probabilities; each pair is a distribution
  // over {MRU, LRU} and sums to exactly 1 by construction — the unit test
  // pins that invariant per window.
  reg.series("scip.p_mru_insert").push(w_miss_);
  reg.series("scip.p_lru_insert").push(1.0 - w_miss_);
  reg.series("scip.p_mru_promote").push(w_prom_);
  reg.series("scip.p_lru_promote").push(1.0 - w_prom_);
  reg.series("scip.lambda").push(lr_.lambda());
  reg.series("scip.hm_objects").push(static_cast<double>(hm_.count()));
  reg.series("scip.hl_objects").push(static_cast<double>(hl_.count()));
  reg.series("scip.hm_bytes").push(static_cast<double>(hm_.used_bytes()));
  reg.series("scip.hl_bytes").push(static_cast<double>(hl_.used_bytes()));
  reg.series("scip.psel_miss").push(static_cast<double>(psel_miss()));
  reg.series("scip.psel_prom").push(static_cast<double>(psel_prom()));
  const std::uint64_t dec = prom_decisions_ - sampled_prom_decisions_;
  const std::uint64_t dem = prom_demotions_ - sampled_prom_demotions_;
  reg.series("scip.window_demotion_fraction")
      .push(dec ? static_cast<double>(dem) / static_cast<double>(dec) : 0.0);
  sampled_prom_decisions_ = prom_decisions_;
  sampled_prom_demotions_ = prom_demotions_;

  reg.counter("scip.overrides").raise_to(overrides_);
  reg.counter("scip.miss_duel_feeds").raise_to(miss_duel_feeds());
  reg.counter("scip.prom_duel_feeds").raise_to(prom_duel_feeds());
  reg.counter("scip.miss_mru_inserts").raise_to(miss_mru_inserts_);
  reg.counter("scip.miss_lru_inserts").raise_to(miss_lru_inserts_);
  reg.counter("scip.prom_decisions").raise_to(prom_decisions_);
  reg.counter("scip.prom_demotions").raise_to(prom_demotions_);
  reg.counter("scip.lr_restarts")
      .raise_to(static_cast<std::uint64_t>(lr_.restarts()));
}

std::uint64_t ScipAdvisor::fixed_state_bytes() noexcept {
  // The advisor's fixed scalar state: learned weights, the Algorithm-2
  // lambda adapter, the decision RNG, and the one-shot per-object override
  // latch (the duel counters live in the duels). Derived from the member
  // types so a field added to any of them flows into the resource-
  // accounting columns automatically — the hand-counted 96 this replaces
  // could not.
  return sizeof(double) * 2                    // w_miss_, w_prom_
         + sizeof(ml::AdaptiveLearningRate)    // lr_
         + sizeof(Rng)                         // rng_
         + sizeof(int) + sizeof(std::uint64_t);  // pending override latch
}

std::uint64_t ScipAdvisor::monitor_fixed_bytes() noexcept {
  // Whole-object footprint of one duel arm minus its queue's per-entry
  // storage (charged separately, per live entry).
  return sizeof(duel::Arm);
}

std::uint64_t ScipAdvisor::metadata_bytes() const {
  // Report only live structures. The history lists and the advisor's fixed
  // scalar state always exist; the two duels (four arms and two counters)
  // only count when they are enabled — the constructor disables them below
  // monitor_min_bytes, and charging disabled monitors inflated the
  // resource-accounting columns for exactly the small caches where
  // metadata overhead matters most.
  std::uint64_t total =
      hm_.metadata_bytes() + hl_.metadata_bytes() + fixed_state_bytes();
  if (params_.use_monitors) {
    total += miss_duel_.metadata_bytes() + prom_duel_.metadata_bytes();
  }
  return total;
}

}  // namespace cdn
