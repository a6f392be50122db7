// Golden-master end-to-end tests: the paper's policies (SCIP, LRU, SCI,
// LIP), the orchestrator and its S4LRU/TinyLFU experts, and the baselines
// that sample victims or read per-object ages (RANDOM, LHD, LRB, LeCaR,
// SS-LRU) run over one small fixed-seed synthetic trace, with EXACT
// hit/miss/byte counters pinned — not ratios. Any behavioral drift anywhere
// in the engine (generator, RNG, queue, advisor, simulator accounting) fails
// these loudly, which is the point: an intentional behavior change must
// re-pin the numbers in the same commit that explains why. The live-duel
// rows at the bottom run at 64 MiB, where the set-dueling monitors clear
// their size floor, and pin the duel state as well.
//
// The pinned values were produced by the code at the time this suite was
// introduced; everything below is deterministic (fixed seeds, no threads,
// no wall-clock dependence).
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "core/orchestrator.hpp"
#include "core/registry.hpp"
#include "core/scip_cache.hpp"
#include "core/scip_engine.hpp"
#include "core/scip_s4lru.hpp"
#include "policies/admission/size_bucket.hpp"
#include "policies/insertion/dip.hpp"
#include "policies/replacement/lrb.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/stressors/scenarios.hpp"

namespace cdn {
namespace {

// A behavior-rich spec: Zipf core, one-hit wonders, pair bursts and a scan
// phase, so insertion and promotion decisions all get exercised.
WorkloadSpec golden_spec() {
  WorkloadSpec spec;
  spec.name = "golden";
  spec.seed = 20260806;
  spec.n_requests = 40'000;
  spec.catalog_size = 4'000;
  spec.zipf_alpha = 0.9;
  spec.p_onehit = 0.25;
  spec.p_burst = 0.08;
  spec.burst_gap_mean = 800;
  spec.mean_size = 8'000;
  spec.size_sigma = 1.2;
  spec.max_size = 1 << 20;
  spec.scan_interval = 15'000;
  spec.scan_length = 2'000;
  spec.scan_onehit = 0.9;
  return spec;
}

const Trace& golden_trace() {
  static const Trace t = generate_trace(golden_spec());
  return t;
}

constexpr std::uint64_t kCapacity = 8ULL << 20;
constexpr std::uint64_t kBytesTotal = 376'486'622u;

struct Golden {
  const char* policy;
  std::uint64_t hits;
  std::uint64_t bytes_hit;
  std::uint64_t warm_hits;
  std::uint64_t warm_bytes_hit;
};

// The golden master. To re-pin after an intentional behavior change, print
// the fields of each SimResult below and update this table.
constexpr Golden kGolden[] = {
    {"SCIP", 13'721u, 138'052'766u, 11'406u, 116'858'710u},
    {"LRU", 13'826u, 138'854'928u, 11'493u, 117'571'931u},
    {"SCI", 13'731u, 138'048'342u, 11'414u, 116'852'560u},
    {"LIP", 10'570u, 110'151'082u, 9'088u, 96'472'935u},
    {"S4LRU", 13'836u, 139'649'300u, 11'848u, 121'268'020u},
    {"TinyLFU", 14'757u, 144'031'159u, 12'399u, 123'056'581u},
    {"S4LRU-SCIP", 13'763u, 139'363'175u, 11'793u, 121'105'927u},
    {"Orchestrator", 14'757u, 144'031'159u, 12'399u, 123'056'581u},
    {"RANDOM", 12'333u, 119'106'052u, 10'234u, 100'671'237u},
    {"LHD", 15'963u, 105'627'203u, 13'397u, 88'884'262u},
    {"LRB", 13'826u, 138'854'928u, 11'493u, 117'571'931u},
    {"LeCaR", 13'838u, 139'012'600u, 11'503u, 117'671'223u},
    {"SS-LRU", 14'933u, 149'509'461u, 12'547u, 127'548'406u},
};

SimOptions golden_options() {
  SimOptions opts;
  opts.window = 10'000;
  opts.warmup_frac = 0.2;
  return opts;
}

TEST(GoldenMaster, TraceIsPinned) {
  const Trace& t = golden_trace();
  EXPECT_EQ(t.requests.size(), 40'000u);
  EXPECT_EQ(t.unique_objects(), 18'725u);
  EXPECT_EQ(t.working_set_bytes(), 171'576'894u);
  std::uint64_t total = 0;
  for (const auto& r : t.requests) total += r.size;
  EXPECT_EQ(total, kBytesTotal);
}

class GoldenMasterPolicy : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenMasterPolicy, ExactCountersMatch) {
  const Golden& g = GetParam();
  auto cache = make_cache(g.policy, kCapacity);
  const auto res = simulate(*cache, golden_trace(), golden_options());

  EXPECT_EQ(res.policy, g.policy);
  EXPECT_EQ(res.requests, 40'000u);
  EXPECT_EQ(res.bytes_total, kBytesTotal);
  EXPECT_EQ(res.hits, g.hits) << "object hits drifted";
  EXPECT_EQ(res.bytes_hit, g.bytes_hit) << "byte hits drifted";
  // Warm-up split: exactly floor(0.2 * 40000) requests excluded.
  EXPECT_EQ(res.warm_requests, 32'000u);
  EXPECT_EQ(res.warm_hits, g.warm_hits) << "warm object hits drifted";
  EXPECT_EQ(res.warm_bytes_hit, g.warm_bytes_hit) << "warm byte hits drifted";
  EXPECT_EQ(res.window_miss_ratios.size(), 4u);
}

TEST_P(GoldenMasterPolicy, ReRunIsBitwiseIdentical) {
  const Golden& g = GetParam();
  auto c1 = make_cache(g.policy, kCapacity);
  auto c2 = make_cache(g.policy, kCapacity);
  const auto r1 = simulate(*c1, golden_trace(), golden_options());
  const auto r2 = simulate(*c2, golden_trace(), golden_options());
  EXPECT_TRUE(deterministic_equal(r1, r2));
  EXPECT_EQ(r1.window_miss_ratios, r2.window_miss_ratios);
}

INSTANTIATE_TEST_SUITE_P(Policies, GoldenMasterPolicy,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           std::string name = info.param.policy;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The registry Orchestrator above starts TinyLFU live and never switches
// on the golden trace, so its row pins only the shadows' side effects.
// This master starts S4LRU live with a short window, so the S4LRU hot path
// serves live traffic and expert hand-offs (warm transfer through
// for_each_resident) actually fire.
TEST(GoldenMaster, OrchestratorFromS4LruIsPinned) {
  OrchestratorParams p;
  p.initial = 1;  // S4LRU
  p.window = 256;
  p.min_dwell_windows = 4;
  OrchestratorCache cache(kCapacity, p);
  const auto res = simulate(cache, golden_trace(), golden_options());
  EXPECT_EQ(res.hits, 14'018u);
  EXPECT_EQ(res.bytes_hit, 138'064'733u);
  EXPECT_EQ(res.warm_hits, 11'829u);
  EXPECT_EQ(res.warm_bytes_hit, 118'149'113u);
  EXPECT_EQ(cache.switches(), 2u);
  EXPECT_EQ(cache.live_policy(), "TinyLFU");
}

// The registry LRB row above never trains a model on the golden trace (its
// labels need more requests than the trace holds), so every eviction there
// is a plain LRU pop. This master shrinks the training window so the model
// trains early and the sampled, age-reading eviction path decides victims.
TEST(GoldenMaster, LrbSampledEvictionIsPinned) {
  LrbParams p;
  p.memory_window = 4096;
  p.train_batch = 1024;
  p.min_retrain_gap = 4096;
  LrbCache cache(kCapacity, p);
  const auto res = simulate(cache, golden_trace(), golden_options());
  EXPECT_EQ(res.hits, 15'403u);
  EXPECT_EQ(res.bytes_hit, 153'791'862u);
  EXPECT_EQ(res.warm_hits, 13'101u);
  EXPECT_EQ(res.warm_bytes_hit, 132'606'158u);
  EXPECT_EQ(cache.retrain_count(), 8u);
}

// ------------------------------------------- stressed-scenario masters --
//
// Same exact-counter discipline over two nonstationary scenarios from the
// stressor layer (trace/stressors/scenarios.hpp): a flash-crowd and a
// drift workload at golden scale. Pins the whole stressor pipeline
// (generator -> chain -> canonicalization) plus the policies' behavior
// under the nonstationarity SCIP's set-dueling exists for.

const Trace& stressed_trace(const std::string& scenario) {
  static const Trace flash = stress::make_stressed_trace(
      stress::make_stress_scenario("flash", 0.04));
  static const Trace drift = stress::make_stressed_trace(
      stress::make_stress_scenario("drift", 0.04));
  return scenario == "flash" ? flash : drift;
}

struct StressedGolden {
  const char* scenario;
  const char* policy;
  std::uint64_t hits;
  std::uint64_t bytes_hit;
  std::uint64_t warm_hits;
  std::uint64_t warm_bytes_hit;
};

// To re-pin after an intentional behavior change, print the SimResult
// fields below and update (same protocol as kGolden).
constexpr StressedGolden kStressedGolden[] = {
    {"flash", "SCIP", 7'394u, 306'319'770u, 5'857u, 209'399'591u},
    {"flash", "LRU", 7'448u, 307'726'431u, 5'902u, 210'507'697u},
    {"drift", "SCIP", 3'119u, 102'627'051u, 2'624u, 86'138'152u},
    {"drift", "LRU", 3'152u, 103'233'633u, 2'645u, 86'535'091u},
    {"flash", "S4LRU", 8'219u, 323'627'634u, 6'685u, 228'960'551u},
    {"flash", "TinyLFU", 7'674u, 302'859'538u, 6'003u, 202'470'614u},
    {"flash", "S4LRU-SCIP", 8'129u, 318'606'738u, 6'616u, 224'692'895u},
    {"flash", "Orchestrator", 7'674u, 302'859'538u, 6'003u, 202'470'614u},
    {"drift", "S4LRU", 3'336u, 105'014'745u, 2'870u, 89'620'027u},
    {"drift", "TinyLFU", 3'410u, 111'498'875u, 2'795u, 92'561'297u},
    {"drift", "S4LRU-SCIP", 3'254u, 103'848'991u, 2'793u, 88'557'767u},
    {"drift", "Orchestrator", 3'410u, 111'498'875u, 2'795u, 92'561'297u},
};

TEST(GoldenMaster, StressedTracesArePinned) {
  const Trace& flash = stressed_trace("flash");
  EXPECT_EQ(flash.requests.size(), 40'000u);
  EXPECT_EQ(flash.unique_objects(), 23'223u);
  EXPECT_EQ(flash.working_set_bytes(), 1'142'240'092u);
  const Trace& drift = stressed_trace("drift");
  EXPECT_EQ(drift.requests.size(), 40'000u);
  EXPECT_EQ(drift.unique_objects(), 26'734u);
  EXPECT_EQ(drift.working_set_bytes(), 1'343'587'998u);
}

class StressedGoldenPolicy : public ::testing::TestWithParam<StressedGolden> {
};

TEST_P(StressedGoldenPolicy, ExactCountersMatch) {
  const StressedGolden& g = GetParam();
  auto cache = make_cache(g.policy, kCapacity);
  const auto res =
      simulate(*cache, stressed_trace(g.scenario), golden_options());
  EXPECT_EQ(res.requests, 40'000u);
  EXPECT_EQ(res.hits, g.hits) << "object hits drifted";
  EXPECT_EQ(res.bytes_hit, g.bytes_hit) << "byte hits drifted";
  EXPECT_EQ(res.warm_hits, g.warm_hits) << "warm object hits drifted";
  EXPECT_EQ(res.warm_bytes_hit, g.warm_bytes_hit) << "warm byte hits drifted";
}

TEST_P(StressedGoldenPolicy, ReRunIsBitwiseIdentical) {
  const StressedGolden& g = GetParam();
  auto c1 = make_cache(g.policy, kCapacity);
  auto c2 = make_cache(g.policy, kCapacity);
  const auto r1 = simulate(*c1, stressed_trace(g.scenario), golden_options());
  const auto r2 = simulate(*c2, stressed_trace(g.scenario), golden_options());
  EXPECT_TRUE(deterministic_equal(r1, r2));
  EXPECT_EQ(r1.window_miss_ratios, r2.window_miss_ratios);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, StressedGoldenPolicy,
                         ::testing::ValuesIn(kStressedGolden),
                         [](const auto& info) {
                           std::string name =
                               std::string(info.param.scenario) + "_" +
                               info.param.policy;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------ live-duel masters --
//
// At kCapacity every duel monitor is 256 KiB, under the 2 MiB
// monitor_min_bytes floor, so SCIP's and SB-LRU's duels are switched off in
// all the rows above (SB-LRU is plain LRU there). At 64 MiB the monitors
// are 2 MiB and every duel runs: SCIP's miss and promotion duels, SB-LRU's
// four size-bucket duels and DIP's MRU-vs-BIP duel. Hits alone barely see
// a duel (SCIP's golden hits are the same with monitors on and off), so
// these rows pin the duel state too:
//   SCIP, SCI, S4LRU-SCIP: {psel_miss, psel_prom, miss_duel_feeds,
//                           prom_duel_feeds}
//   SB-LRU:                {psel(0), psel(1), psel(2), psel(3)}
//   DIP:                   {bip_winning, 0, 0, 0}

constexpr std::uint64_t kDuelCapacity = 64ULL << 20;

struct DuelGolden {
  const char* trace;  ///< "golden", "flash" or "drift"
  const char* policy;
  std::uint64_t hits;
  std::uint64_t bytes_hit;
  std::array<std::int64_t, 4> state;
};

constexpr DuelGolden kDuelGolden[] = {
    {"golden", "SCIP", 20'153u, 194'865'670u, {44, 73, 3122, 1941}},
    {"golden", "SCI", 20'152u, 194'880'936u, {44, 73, 3122, 1941}},
    {"golden", "S4LRU-SCIP", 19'021u, 183'788'899u, {44, 73, 3122, 1941}},
    {"golden", "SB-LRU", 20'272u, 195'762'767u, {-256, -29, -1, 0}},
    {"golden", "DIP", 20'272u, 195'762'767u, {0, 0, 0, 0}},
    {"flash", "SCIP", 10'780u, 426'220'669u, {-17, 61, 2004, 1281}},
    {"flash", "SCI", 10'781u, 426'297'163u, {-17, 61, 2004, 1281}},
    {"flash", "S4LRU-SCIP", 10'629u, 410'280'535u, {-17, 61, 2004, 1281}},
    {"flash", "SB-LRU", 10'810u, 427'622'195u, {-170, -158, 10, 0}},
    {"flash", "DIP", 10'780u, 421'408'217u, {1, 0, 0, 0}},
    {"drift", "SCIP", 6'324u, 244'551'997u, {-18, 39, 1432, 1220}},
    {"drift", "SCI", 6'318u, 244'383'357u, {-18, 39, 1432, 1220}},
    {"drift", "S4LRU-SCIP", 5'541u, 199'227'697u, {-18, 39, 1432, 1220}},
    {"drift", "SB-LRU", 6'368u, 247'416'491u, {-9, -55, 6, 0}},
    {"drift", "DIP", 5'749u, 216'396'325u, {1, 0, 0, 0}},
};

const Trace& duel_trace(const std::string& name) {
  return name == "golden" ? golden_trace() : stressed_trace(name);
}

std::array<std::int64_t, 4> scip_state(const ScipAdvisor& a) {
  return {a.psel_miss(), a.psel_prom(),
          static_cast<std::int64_t>(a.miss_duel_feeds()),
          static_cast<std::int64_t>(a.prom_duel_feeds())};
}

class DuelGoldenPolicy : public ::testing::TestWithParam<DuelGolden> {};

TEST_P(DuelGoldenPolicy, ExactCountersAndDuelStateMatch) {
  const DuelGolden& g = GetParam();
  const Trace& t = duel_trace(g.trace);
  const std::string policy = g.policy;
  CachePtr cache = make_cache(policy, kDuelCapacity);
  const auto res = simulate(*cache, t, golden_options());
  EXPECT_EQ(res.hits, g.hits) << "object hits drifted";
  EXPECT_EQ(res.bytes_hit, g.bytes_hit) << "byte hits drifted";

  std::array<std::int64_t, 4> state{};
  if (policy == "S4LRU-SCIP") {
    // The registry cache does not expose its advisor, so rebuild it the
    // way make_s4lru_scip does (advisor seed 1 ^ 0x545c) and check that
    // the rebuild replays bitwise like the registry cache.
    ScipParams p;
    p.seed = 1 ^ 0x545c;
    auto adv = std::make_shared<ScipAdvisor>(kDuelCapacity, p);
    ScipS4LruCache rebuilt(kDuelCapacity, adv);
    EXPECT_TRUE(
        deterministic_equal(simulate(rebuilt, t, golden_options()), res));
    state = scip_state(*adv);
  } else if (auto* advised = dynamic_cast<AdvisedLruCache*>(cache.get())) {
    state = scip_state(dynamic_cast<ScipAdvisor&>(advised->advisor()));
  } else if (auto* sb = dynamic_cast<SizeBucketLruCache*>(cache.get())) {
    ASSERT_TRUE(sb->duel_enabled());
    for (int b = 0; b < SizeBucketLruCache::kBuckets; ++b) {
      state[static_cast<std::size_t>(b)] = sb->psel(b);
    }
  } else {
    state[0] = dynamic_cast<DipCache&>(*cache).bip_winning();
  }
  EXPECT_EQ(state, g.state) << "duel state drifted";
}

INSTANTIATE_TEST_SUITE_P(LiveDuels, DuelGoldenPolicy,
                         ::testing::ValuesIn(kDuelGolden),
                         [](const auto& info) {
                           std::string name =
                               std::string(info.param.trace) + "_" +
                               info.param.policy;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace cdn
