// End-to-end run: single-thread replay of SCIP, LRU and the orchestrator,
// then closed-loop serving through the sharded cache and the cluster, in
// interleaved rounds until the time budget is spent. Round r serves
// instance r % kInstances. Tracing is off.
#include <algorithm>
#include <map>

#include "core/registry.hpp"
#include "obs/json.hpp"
#include "runs.hpp"
#include "serve.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

Pass replay(Cache& cache, const cdn::TraceColumns& cols,
            const cdn::SimOptions& opts) {
  const std::uint64_t t0 = now_ns();
  cdn::SimResult r = cdn::simulate(cache, cols, opts);
  return {std::move(r), static_cast<double>(now_ns() - t0) * 1e-9};
}

namespace {

/// One figure measured once per round, kept per instance, raw and with
/// the probe factor `f` around the pass. Rescaling multiplies rates by it
/// and divides times; kUnscaled figures are left alone: ratios, and the
/// cluster's throughput, which its cluster-wide lock bounds rather than the
/// memory system the probe tracks (rescaling it widened its spread over
/// seeds from 0.06-0.16 to 0.07-0.21 on the reference host). How the
/// rounds are pooled:
///  * kInstances: replay speed follows the instance's hit share, so the
///    median over each instance's rounds, then the harmonic mean over
///    instances (every instance is the same amount of work);
///  * kMedian: the median over all rounds;
///  * kQuietest: the lowest value over all rounds, for the p99 tails. Host
///    preemption bursts inflate a round's p99 two- to tenfold, often for
///    most of a run, and the host probe cannot see them.
class Series {
 public:
  enum class Kind { kRate, kTime, kUnscaled };
  enum class Pool { kInstances, kMedian, kQuietest };

  Series(Kind kind, Pool pool, std::size_t instances)
      : kind_(kind), pool_(pool), raw_(instances), factor_(instances) {}

  void add(std::size_t instance, double v, double f) {
    raw_[instance].push_back(v);
    factor_[instance].push_back(f);
  }
  [[nodiscard]] double value() const { return combine(true, pool_); }
  [[nodiscard]] double raw() const { return combine(false, pool_); }
  /// The rescaled median over all rounds, whatever the pooling.
  [[nodiscard]] double round_median() const {
    return combine(true, Pool::kMedian);
  }

  /// Every measurement, per instance: [[raw, factor], ...].
  [[nodiscard]] cdn::obs::json::Value dump() const {
    cdn::obs::json::Array per;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      cdn::obs::json::Array rows;
      for (std::size_t j = 0; j < raw_[i].size(); ++j) {
        rows.emplace_back(cdn::obs::json::Array{raw_[i][j], factor_[i][j]});
      }
      per.emplace_back(std::move(rows));
    }
    return cdn::obs::json::Value(std::move(per));
  }

 private:
  [[nodiscard]] double combine(bool scaled, Pool pool) const {
    std::vector<std::vector<double>> per(raw_.size());
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      for (std::size_t j = 0; j < raw_[i].size(); ++j) {
        const double v = raw_[i][j];
        const double f = scaled ? factor_[i][j] : 1.0;
        per[i].push_back(kind_ == Kind::kRate   ? v * f
                         : kind_ == Kind::kTime ? v / f
                                                : v);
      }
    }
    if (pool != Pool::kInstances) {
      std::vector<double> all;
      for (const std::vector<double>& v : per) {
        all.insert(all.end(), v.begin(), v.end());
      }
      if (all.empty()) return 0.0;
      return pool == Pool::kMedian ? median(all)
                                    : *std::min_element(all.begin(), all.end());
    }
    double inv_sum = 0;
    std::size_t n = 0;
    for (const std::vector<double>& v : per) {
      if (v.empty()) continue;
      inv_sum += 1.0 / median(v);
      ++n;
    }
    return n > 0 ? static_cast<double>(n) / inv_sum : 0.0;
  }

  Kind kind_;
  Pool pool_;
  std::vector<std::vector<double>> raw_, factor_;
};

/// Adds one round's exact p50/p99 (from that round's raw samples) to the
/// latency series, after checking the p99 has 10 samples beyond it.
void add_latency(Samples& s, std::size_t instance, double f,
                 const std::string& what, Series& p50_us, Series& p99_us,
                 std::size_t& min_samples, Checks& checks) {
  checks.expect(s.supported(0.99),
                what + " has at least 10 samples beyond its p99");
  p50_us.add(instance, s.percentile(0.50) * 1e-3, f);
  p99_us.add(instance, s.percentile(0.99) * 1e-3, f);
  min_samples = std::min(min_samples, s.count());
}

/// Warm miss ratio pooled over the instances' reference replays.
double warm_miss(const std::vector<cdn::SimResult>& rs, bool bytes) {
  double total = 0, hit = 0;
  for (const cdn::SimResult& r : rs) {
    total += static_cast<double>(bytes ? r.warm_bytes_total : r.warm_requests);
    hit += static_cast<double>(bytes ? r.warm_bytes_hit : r.warm_hits);
  }
  return total > 0 ? 1.0 - hit / total : 0.0;
}

}  // namespace

void run_end_to_end(const RunConfig& cfg, Checks& checks, Report& report) {
  const HostProbe probe;
  const Setup s = build_setup(cfg.params, probe, checks);
  const SetupTimes& st = s.times;
  const std::size_t k = s.inputs.size();

  const char* const kPolicies[] = {"SCIP", "LRU", "Orchestrator"};
  using Kind = Series::Kind;
  using Pool = Series::Pool;
  std::map<std::string, Series> rps;
  // ref[policy][i]: the first replay of instance i, which later passes of
  // the same instance must reproduce exactly.
  std::map<std::string, std::vector<cdn::SimResult>> ref;
  for (const char* policy : kPolicies) {
    rps.emplace(policy, Series(Kind::kRate, Pool::kInstances, k));
    ref[policy].resize(k);
  }
  Series shard_rps(Kind::kRate, Pool::kMedian, k);
  Series cluster_rps(Kind::kUnscaled, Pool::kMedian, k);
  Series shard_p50(Kind::kTime, Pool::kMedian, k);
  Series shard_p99(Kind::kTime, Pool::kQuietest, k);
  Series cluster_p50(Kind::kTime, Pool::kMedian, k);
  Series cluster_p99(Kind::kTime, Pool::kQuietest, k);
  Series origin_ratio(Kind::kUnscaled, Pool::kMedian, k);
  std::size_t shard_min = SIZE_MAX, cluster_min = SIZE_MAX;
  std::size_t shard_samples = 0, cluster_samples = 0;
  std::vector<double> factors;
  ServeOptions opt;
  opt.drop_one_request = cfg.fault == "drop-request";

  // Each pass is bracketed by host probes; it is rescaled by their mean.
  double f_before = probe.factor();
  auto bracket = [&] {
    const double f_after = probe.factor();
    const double f = (f_before + f_after) / 2;
    f_before = f_after;
    factors.push_back(f);
    return f;
  };

  RoundClock clock(cfg.seconds);
  std::size_t round = 0;
  bool more = true;
  do {
    const std::size_t i = round % k;
    const Instance& in = s.inputs[i];
    const double n = static_cast<double>(in.cols.size());
    for (const char* policy : kPolicies) {
      const CachePtr c = cdn::make_cache(policy, in.capacity, in.cache_seed);
      Pass pass = replay(*c, in.cols);
      rps.at(policy).add(i, n / pass.seconds, bracket());
      checks.expect(c->used_bytes() <= c->capacity(),
                    std::string(policy) + " holds used_bytes <= capacity");
      if (round < k) {
        ref[policy][i] = std::move(pass.result);
      } else {
        checks.expect(cdn::deterministic_equal(pass.result, ref[policy][i]),
                      std::string(policy) + " replay of instance " +
                          std::to_string(i) + " repeats its first pass");
      }
    }
    {
      cdn::srv::ShardedCache cache(shard_config(in));
      ServeResult r = serve_sharded(cache, in, opt);
      const double f = bracket();
      check_sharded(cache, r, checks);
      shard_rps.add(i, static_cast<double>(r.issued) / r.wall_s, f);
      add_latency(r.call_ns, i, f, "access_batch latency", shard_p50,
                  shard_p99, shard_min, checks);
      shard_samples += r.call_ns.count();
    }
    {
      cdn::cluster::ClusterCache cache(cluster_config(in));
      ServeResult r = serve_cluster(cache, in, opt);
      const double f = bracket();
      check_cluster(cache, r, checks);
      const cdn::cluster::ClusterTotals t = cache.totals();
      checks.expect(t.migrated_keys > 0,
                    "join/leave warm-transferred residents");
      cluster_rps.add(i, static_cast<double>(r.issued) / r.wall_s, f);
      origin_ratio.add(i,
                       static_cast<double>(t.origin_bytes) /
                           static_cast<double>(t.bytes_total),
                       f);
      add_latency(r.call_ns, i, f, "cluster window latency", cluster_p50,
                  cluster_p99, cluster_min, checks);
      cluster_samples += r.call_ns.count();
    }
    ++round;
    more = clock.another_round();
  } while (more || round < k);

  // SoA replay (the measured path) must equal the AoS replay.
  for (std::size_t i = 0; i < k; ++i) {
    const Instance& in = s.inputs[i];
    CachePtr c = cdn::make_cache("SCIP", in.capacity, in.cache_seed);
    if (cfg.fault == "flip-hit" && i == 0) {
      c = std::make_unique<FlipOneHit>(std::move(c), in.trace.size() / 2);
    }
    const cdn::SimResult aos = cdn::simulate(*c, in.trace);
    checks.expect(cdn::deterministic_equal(aos, ref["SCIP"][i]),
                  "SCIP SoA replay equals AoS replay");
  }

  report.add("setup_s", st.scaled_total_s, "s");
  report.add("peak_rss_mib",
             static_cast<double>(cdn::peak_rss_bytes()) / (1024.0 * 1024.0),
             "MiB");
  report.add("scip_rps", rps.at("SCIP").value(), "1/s");
  report.add("lru_rps", rps.at("LRU").value(), "1/s");
  report.add("orch_rps", rps.at("Orchestrator").value(), "1/s");
  report.add("scip_byte_miss", warm_miss(ref["SCIP"], true), "ratio");
  report.add("scip_object_miss", warm_miss(ref["SCIP"], false), "ratio");
  report.add("orch_byte_miss", warm_miss(ref["Orchestrator"], true), "ratio");
  report.add("shard_rps", shard_rps.value(), "1/s");
  report.add("shard_p50_us", shard_p50.value(), "us");
  report.add("cluster_rps", cluster_rps.value(), "1/s");
  report.add("cluster_origin_byte_ratio", origin_ratio.value(), "ratio");

  // The same figures before rescaling to reference host speed.
  for (const auto& [name, series] :
       {std::pair<const char*, const Series*>{"scip_rps", &rps.at("SCIP")},
        {"lru_rps", &rps.at("LRU")},
        {"orch_rps", &rps.at("Orchestrator")},
        {"shard_rps", &shard_rps},
        {"shard_p50_us", &shard_p50},
        {"shard_p99_us", &shard_p99},
        {"cluster_rps", &cluster_rps},
        {"cluster_p99_us", &cluster_p99},
        {"cluster_origin_byte_ratio", &origin_ratio}}) {
    report.series.emplace_back(name, series->dump());
  }
  report.fact("raw.setup_s", st.total_s);
  report.fact("raw.scip_rps", rps.at("SCIP").raw());
  report.fact("raw.lru_rps", rps.at("LRU").raw());
  report.fact("raw.orch_rps", rps.at("Orchestrator").raw());
  report.fact("raw.shard_rps", shard_rps.raw());
  report.fact("raw.shard_p50_us", shard_p50.raw());
  report.fact("raw.shard_p99_us", shard_p99.raw());
  report.fact("raw.cluster_rps", cluster_rps.raw());
  report.fact("raw.cluster_p50_us", cluster_p50.raw());
  report.fact("raw.cluster_p99_us", cluster_p99.raw());
  // Tail percentiles, reported but not gated: a host preemption burst
  // inflates a whole run's p99s two- to tenfold, beyond any bound.
  report.fact("shard_p99_us", shard_p99.value());
  report.fact("cluster_p99_us", cluster_p99.value());
  report.fact("round_median.shard_p99_us", shard_p99.round_median());
  report.fact("round_median.cluster_p99_us", cluster_p99.round_median());
  report.fact("host_factor", median(factors));
  report.fact("rounds", static_cast<double>(round));
  report.fact("instances", static_cast<double>(k));
  report.fact("shard_latency_samples", static_cast<double>(shard_samples));
  report.fact("shard_latency_samples_min_round",
              static_cast<double>(shard_min));
  report.fact("cluster_latency_samples", static_cast<double>(cluster_samples));
  report.fact("cluster_latency_samples_min_round",
              static_cast<double>(cluster_min));
  // Workload properties, averaged over the instances.
  double requests = 0, unique = 0, wss = 0, cache = 0;
  for (const Instance& in : s.inputs) {
    requests += static_cast<double>(in.cols.size());
    unique += static_cast<double>(in.trace.unique_objects());
    wss += static_cast<double>(in.wss);
    cache += static_cast<double>(in.capacity);
  }
  const double kd = static_cast<double>(k);
  report.fact("requests", requests / kd);
  report.fact("unique_objects", unique / kd);
  report.fact("wss_bytes", wss / kd);
  report.fact("cache_bytes", cache / kd);
  report.fact("scip_hit_share", 1.0 - warm_miss(ref["SCIP"], false));
  report.fact("lru_hit_share", 1.0 - warm_miss(ref["LRU"], false));
}

}  // namespace perfbench
