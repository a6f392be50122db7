// Parameterized invariant suite: every registered policy must uphold the
// basic cache contract on a realistic workload —
//   * never exceed its byte capacity,
//   * report contains() consistently with admissions,
//   * be deterministic for a fixed seed,
//   * produce hit counts bounded by requests,
//   * survive pathological inputs (oversized objects, capacity 1, repeats),
// plus a read-only-hints suite: prefetch/contains never change a decision.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/orchestrator.hpp"
#include "core/registry.hpp"
#include "obs/introspect.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/oracle.hpp"

namespace cdn {
namespace {

const Trace& shared_trace() {
  static const Trace t = [] {
    Trace tr = generate_trace(cdn_t_like(0.03));
    annotate_next_access(tr);  // Belady & friends need it
    return tr;
  }();
  return t;
}

class PolicyInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyInvariants, CapacityNeverExceeded) {
  const Trace& t = shared_trace();
  const std::uint64_t cap = 64ULL << 20;
  auto cache = make_cache(GetParam(), cap);
  for (std::size_t i = 0; i < t.size(); ++i) {
    cache->access(t[i]);
    if (i % 1024 == 0) {
      ASSERT_LE(cache->used_bytes(), cap) << "at request " << i;
    }
  }
  EXPECT_LE(cache->used_bytes(), cap);
}

TEST_P(PolicyInvariants, HitsBoundedAndRatiosValid) {
  const Trace& t = shared_trace();
  auto cache = make_cache(GetParam(), 64ULL << 20);
  const auto res = simulate(*cache, t);
  EXPECT_EQ(res.requests, t.size());
  EXPECT_LE(res.hits, res.requests);
  EXPECT_GE(res.object_miss_ratio(), 0.0);
  EXPECT_LE(res.object_miss_ratio(), 1.0);
  EXPECT_GE(res.byte_miss_ratio(), 0.0);
  EXPECT_LE(res.byte_miss_ratio(), 1.0);
}

TEST_P(PolicyInvariants, DeterministicForFixedSeed) {
  const Trace& t = shared_trace();
  auto a = make_cache(GetParam(), 32ULL << 20, /*seed=*/5);
  auto b = make_cache(GetParam(), 32ULL << 20, /*seed=*/5);
  const auto ra = simulate(*a, t);
  const auto rb = simulate(*b, t);
  EXPECT_EQ(ra.hits, rb.hits);
  EXPECT_EQ(ra.bytes_hit, rb.bytes_hit);
}

TEST_P(PolicyInvariants, FirstAccessIsAlwaysAMiss) {
  auto cache = make_cache(GetParam(), 1ULL << 20);
  Request r{0, 12345, 100, Request::kNoNext};
  EXPECT_FALSE(cache->access(r));
}

TEST_P(PolicyInvariants, OversizedObjectBypasses) {
  auto cache = make_cache(GetParam(), 1000);
  Request big{0, 1, 5000, 1};
  EXPECT_FALSE(cache->access(big));
  EXPECT_FALSE(cache->contains(1));
  EXPECT_LE(cache->used_bytes(), 1000u);
}

TEST_P(PolicyInvariants, RepeatedSmallObjectEventuallyHits) {
  auto cache = make_cache(GetParam(), 1ULL << 20);
  // A single object hammered repeatedly must be a hit most of the time for
  // any reasonable policy.
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    Request r{i, 7, 100, i + 1};
    if (cache->access(r)) ++hits;
  }
  EXPECT_GT(hits, 150);
}

TEST_P(PolicyInvariants, MetadataReportedNonZeroAfterLoad) {
  const Trace& t = shared_trace();
  auto cache = make_cache(GetParam(), 32ULL << 20);
  for (std::size_t i = 0; i < std::min<std::size_t>(t.size(), 20000); ++i) {
    cache->access(t[i]);
  }
  EXPECT_GT(cache->metadata_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariants,
    ::testing::Values("LRU", "LIP", "BIP", "DIP", "PIPP", "SHiP", "DTA",
                      "DGIPPR", "DAAIP", "ASC-IP", "SCI", "SCIP", "LRU-2",
                      "S4LRU", "SS-LRU", "GDSF", "LHD", "LeCaR", "CACHEUS",
                      "LRB", "GL-Cache", "Belady", "LRU-2-SCIP",
                      "LRU-2-ASC-IP", "LRB-SCIP", "LRB-ASC-IP", "ARC", "LIRS",
                      "2Q", "TinyLFU", "AdaptSize", "S4LRU-SCIP"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- read-only hints --------------------------------------------------
//
// prefetch(), prefetch_hashed(), contains() and contains_hashed() are
// advisory or read-only by contract (sim/cache.hpp). A cache that receives
// all four before every access must stay bitwise equal to a twin that
// receives none: same hit sequence, used_bytes, resident order, and
// simulate()'s metrics_json and metadata peak.

/// Forwards to `inner`. With `hints`, issues every read-only call for the
/// request's id ahead of each access() and forwards the replay loop's
/// prefetches; without, drops the replay loop's prefetches too.
class HintProbe final : public Cache, public obs::Introspectable {
 public:
  HintProbe(CachePtr inner, bool hints)
      : Cache(inner->capacity()), inner_(std::move(inner)), hints_(hints) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  bool access(const Request& req) override {
    if (hints_) {
      const std::uint64_t h = hash64(req.id);
      inner_->prefetch(req.id);
      inner_->prefetch_hashed(req.id, h);
      residency_.push_back(inner_->contains(req.id));
      EXPECT_EQ(inner_->contains_hashed(req.id, h), residency_.back());
    }
    hits_.push_back(inner_->access(req));
    return hits_.back();
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return inner_->contains(id);
  }
  void prefetch(std::uint64_t id) const noexcept override {
    if (hints_) inner_->prefetch(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }
  // detlint:allow(accounting, hits_/residency_ are test bookkeeping, not cache metadata; the wrapped policy's footprint is forwarded unchanged)
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return inner_->metadata_bytes();
  }
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override {
    return inner_->for_each_resident(fn);
  }
  void sample_metrics(obs::MetricRegistry& reg) override {
    if (auto* in = dynamic_cast<obs::Introspectable*>(inner_.get())) {
      in->sample_metrics(reg);
    }
  }

  [[nodiscard]] const std::vector<bool>& hits() const { return hits_; }
  [[nodiscard]] const std::vector<bool>& residency() const {
    return residency_;
  }
  [[nodiscard]] Cache& inner() { return *inner_; }

 private:
  CachePtr inner_;
  bool hints_;
  std::vector<bool> hits_;
  std::vector<bool> residency_;  ///< contains() before each access
};

std::vector<std::pair<std::uint64_t, std::uint64_t>> residents(
    const Cache& c) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  c.for_each_resident([&out](std::uint64_t id, std::uint64_t size) {
    out.emplace_back(id, size);
    return true;
  });
  return out;
}

void expect_hints_read_only(HintProbe& hinted, HintProbe& plain,
                            const Trace& t) {
  SimOptions opts;
  opts.window = 4096;
  opts.metadata_sample_every = 1024;
  opts.collect_policy_metrics = true;
  const SimResult a = simulate(hinted, t, opts);
  const SimResult b = simulate(plain, t, opts);
  EXPECT_EQ(hinted.hits(), plain.hits());
  // contains() before an access is exactly whether that access hits.
  EXPECT_EQ(hinted.residency(), plain.hits());
  EXPECT_EQ(hinted.used_bytes(), plain.used_bytes());
  EXPECT_EQ(residents(hinted), residents(plain));
  EXPECT_FALSE(a.metrics_json.empty());
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_TRUE(deterministic_equal(a, b));
}

/// Every registry policy at two capacities: at 8 MiB the set-dueling
/// monitors sit below their 2 MiB floor, at 64 MiB they run.
class ReadOnlyHints
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ReadOnlyHints, HintedTwinIsBitwiseEqual) {
  const auto& [policy, cap] = GetParam();
  HintProbe hinted(make_cache(policy, cap), true);
  HintProbe plain(make_cache(policy, cap), false);
  expect_hints_read_only(hinted, plain, shared_trace());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ReadOnlyHints,
    ::testing::Combine(::testing::ValuesIn(all_policy_names()),
                       ::testing::Values(8ULL << 20, 64ULL << 20)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_" + std::to_string(std::get<1>(info.param) >> 20) +
             "MiB";
    });

TEST(ReadOnlyHintsOrchestrator, SwitchingFromS4LruIsBitwiseEqual) {
  // S4LRU live plus a short window: the hints reach the live S4LRU, all
  // three shadows, and the experts that the hand-offs construct.
  OrchestratorParams p;
  p.initial = 1;
  p.window = 256;
  p.min_dwell_windows = 4;
  const std::uint64_t cap = 8ULL << 20;
  HintProbe hinted(std::make_unique<OrchestratorCache>(cap, p), true);
  HintProbe plain(std::make_unique<OrchestratorCache>(cap, p), false);
  expect_hints_read_only(hinted, plain, generate_trace(cdn_w_like(0.04)));
  const auto& h = dynamic_cast<const OrchestratorCache&>(hinted.inner());
  const auto& q = dynamic_cast<const OrchestratorCache&>(plain.inner());
  EXPECT_GT(h.switches(), 0u);
  EXPECT_EQ(h.switches(), q.switches());
  EXPECT_EQ(h.live_policy(), q.live_policy());
}

}  // namespace
}  // namespace cdn
