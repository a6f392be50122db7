#include "workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "common.hpp"
#include "core/registry.hpp"
#include "serve.hpp"
#include "trace/generator.hpp"
#include "trace/stressors/scenarios.hpp"
#include "trace/stressors/stressor.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

struct Def {
  const char* name;
  const char* scenario;
  const char* base;
  std::uint64_t salt;
};

// replay-hit: hit-heavy, P-ZRO-rich CDN-W stand-in. replay-miss: the
// one-hit-wonder-dominated CDN-A stand-in, the same code used the other way
// round. serve-flash: CDN-T stand-in with flash crowds, the only stream
// whose hot keys trip the cluster's hot-key spreading and peer probes.
constexpr Def kDefs[] = {
    {"replay-hit", "baseline", "cdn-w", 0x11},
    {"replay-miss", "baseline", "cdn-a", 0x22},
    {"serve-flash", "flash", "cdn-t", 0x33},
};

const Def& def_of(const std::string& name) {
  for (const Def& d : kDefs) {
    if (name == d.name) return d;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// The k-th seed of instance `i` of workload `p`.
std::uint64_t derive(const WorkloadParams& p, std::size_t i, std::uint64_t k) {
  return cdn::hash64(cdn::hash64(p.seed ^ (def_of(p.name).salt << 56)) +
                     i * 16 + k);
}

double since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Builds every cache the run drives once and destroys it, so set-up time
/// includes construction.
void construct_caches(const Instance& in) {
  for (const char* policy : {"SCIP", "LRU", "Orchestrator"}) {
    keep(cdn::make_cache(policy, in.capacity, in.cache_seed)->capacity());
  }
  keep(cdn::srv::ShardedCache(shard_config(in)).capacity());
  keep(cdn::cluster::ClusterCache(cluster_config(in)).capacity());
}

}  // namespace

bool known_workload(const std::string& name) {
  return std::any_of(std::begin(kDefs), std::end(kDefs),
                     [&](const Def& d) { return name == d.name; });
}

namespace {

/// Scenario of instance `i`: every generator and stressor seed derives
/// from p.seed.
cdn::stress::StressScenario make_scenario(const WorkloadParams& p,
                                          std::size_t i) {
  const Def& d = def_of(p.name);
  cdn::stress::StressScenario sc =
      cdn::stress::make_stress_scenario(d.scenario, p.scale, d.base);
  sc.base.seed = derive(p, i, 1);
  sc.seed = derive(p, i, 2);
  return sc;
}

/// Builds instance `i`, recording each stage's time in `t`.
Instance build_instance(const WorkloadParams& p, std::size_t i,
                        SetupTimes& t) {
  const std::uint64_t start = now_ns();
  Instance in;
  in.cache_seed = derive(p, i, 3);
  const cdn::stress::StressScenario sc = make_scenario(p, i);

  std::uint64_t t0 = now_ns();
  in.trace = cdn::generate_trace(sc.base);
  t.generate_s = since(t0);

  t0 = now_ns();
  const std::vector<cdn::stress::StressorPtr> chain =
      cdn::stress::make_scenario_chain(sc);
  if (!chain.empty()) {
    in.trace = cdn::stress::apply_stressors(in.trace, chain, sc.seed);
  }
  in.trace.name = p.name;
  in.wss = in.trace.working_set_bytes();
  in.capacity = static_cast<std::uint64_t>(kCapacityFrac *
                                           static_cast<double>(in.wss));
  t.stress_s = since(t0);

  t0 = now_ns();
  in.cols = cdn::to_columns(in.trace, /*keep_time=*/false,
                            /*keep_next=*/false);
  t.columns_s = since(t0);

  t0 = now_ns();
  const std::size_t clients = std::max<std::size_t>(1, p.workers);
  in.part.batch_first.assign(clients, {});
  for (std::size_t first = 0; first < in.cols.size(); first += kBatch) {
    in.part.batch_first[in.part.batches % clients].push_back(first);
    ++in.part.batches;
  }
  t.partition_s = since(t0);

  construct_caches(in);
  t.total_s = since(start);
  return in;
}

}  // namespace

Setup build_setup(const WorkloadParams& p, const HostProbe& probe,
                  Checks& checks) {
  Setup s;
  std::vector<double> gen, stress, cols, part, total, scaled;
  double f_before = probe.factor();
  for (std::size_t i = 0; i < kInstances; ++i) {
    SetupTimes t;
    s.inputs.push_back(build_instance(p, i, t));
    const double f_after = probe.factor();
    const double f = (f_before + f_after) / 2;
    f_before = f_after;
    gen.push_back(t.generate_s);
    stress.push_back(t.stress_s);
    cols.push_back(t.columns_s);
    part.push_back(t.partition_s);
    total.push_back(t.total_s);
    scaled.push_back(t.total_s / f);
  }
  s.times = {median(gen),  median(stress), median(cols),
             median(part), median(total),  median(scaled)};

  SetupTimes unused;
  const Instance again = build_instance(p, 0, unused);
  const Instance& first = s.inputs[0];
  checks.expect(again.cols.ids == first.cols.ids &&
                    again.cols.sizes == first.cols.sizes &&
                    again.part.batch_first == first.part.batch_first &&
                    again.capacity == first.capacity,
                "building an instance twice gives the same input");
  return s;
}

}  // namespace perfbench
