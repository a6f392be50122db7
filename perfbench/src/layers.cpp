// Traced run: attributes a request's time to the layers it crosses. Spans
// and timers live only in the benchmark: around calls into each layer, and
// inside TimedCache, which wraps policy instances handed to simulate(), to
// the sharded cache's and the cluster's factory constructors. Every traced
// replay must reproduce the untraced replay's results and counters bit for
// bit. Each round repeats every measurement; times are medians over rounds,
// percentiles and counters come from round 0 (instance 0).
#include <fstream>
#include <map>

#include "core/orchestrator.hpp"
#include "core/registry.hpp"
#include "obs/json.hpp"
#include "runs.hpp"
#include "serve.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

double ns_per(std::uint64_t t0, double n) {
  return static_cast<double>(now_ns() - t0) / n;
}

/// ns/request of a bare access() loop over the columns, no driver.
double bare_loop_ns(Cache& cache, const cdn::TraceColumns& cols) {
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    (void)cache.access(cols.request_at(i));
  }
  return ns_per(t0, static_cast<double>(cols.size()));
}

/// Counter `name` of a serialized "cdn-metrics" document (0 if absent).
double counter(const std::string& metrics_json, const std::string& name) {
  const auto doc = cdn::obs::json::parse(metrics_json);
  if (!doc) return 0.0;
  const cdn::obs::json::Value* counters = doc->find("counters");
  const cdn::obs::json::Value* v =
      counters != nullptr ? counters->find(name) : nullptr;
  return v != nullptr ? v->as_number() : 0.0;
}

/// Everything but metrics_json, which only a collecting run fills in.
bool same_decisions(cdn::SimResult a, cdn::SimResult b) {
  a.metrics_json.clear();
  b.metrics_json.clear();
  return cdn::deterministic_equal(a, b);
}

void write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& sinks) {
  std::ofstream out(path);
  for (const std::vector<Span>& sink : sinks) {
    for (const Span& s : sink) {
      out << "{\"name\":\"" << s.name << "\",\"req\":" << s.req
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"t0_ns\":" << s.t0 << ",\"t1_ns\":" << s.t1 << "}\n";
    }
  }
}

/// Every child span must belong to the same request as its parent.
bool spans_share_request_ids(const std::vector<std::vector<Span>>& sinks) {
  std::map<std::uint64_t, std::uint64_t> req_of;
  for (const auto& sink : sinks) {
    for (const Span& s : sink) req_of[s.id] = s.req;
  }
  for (const auto& sink : sinks) {
    for (const Span& s : sink) {
      if (s.parent == 0) continue;
      const auto it = req_of.find(s.parent);
      if (it == req_of.end() || it->second != s.req) return false;
    }
  }
  return true;
}

struct Round {
  double hash64_ns = 0, flatmap_find_ns = 0;
  double lru_ns = 0, scip_ns = 0, orch_ns = 0, s4lru_ns = 0, tinylfu_ns = 0;
  double lru_sim_ns = 0, aos_over_soa = 0, collect_ns = 0;
  double srv_policy_ns = 0, srv_self_ns = 0, srv_busy_frac = 0;
  double cluster_node_ns = 0, cluster_probe_ns = 0, cluster_self_ns = 0;
  double join_ms = 0, leave_ms = 0;
  double untraced_s = 0, traced_s = 0;
};

}  // namespace

void run_traced(const RunConfig& cfg, Checks& checks, Report& report) {
  const HostProbe probe;
  const Setup s = build_setup(cfg.params, probe, checks);
  const SetupTimes& st = s.times;
  const std::size_t k = s.inputs.size();
  const std::size_t clients = s.inputs[0].part.batch_first.size();

  // sinks[0]: replay spans (this thread); sinks[1 + w]: serving client w.
  std::vector<std::vector<Span>> sinks(1 + clients);
  std::vector<std::vector<Span>> client_sinks(clients);

  std::vector<Round> rounds;
  Samples lru_hit, lru_miss, scip_hit, scip_miss, cluster_access;
  cdn::SimResult scip_ref, scip_counted;
  double orch_switches = 0, orch_switch_us_max = 0;
  double request_skew = 0, occupancy_skew = 0;
  // Quietest-round tails of the untraced serving passes (see e2e.cpp).
  double batch_p99_us = 1e300, window_p99_us = 1e300;
  cdn::cluster::ClusterTotals ct;

  cdn::SimOptions collect;
  collect.collect_policy_metrics = true;

  RoundClock clock(cfg.seconds);
  do {
    Round r;
    const bool first = rounds.empty();
    const Instance& in = s.inputs[rounds.size() % k];
    const std::uint64_t seed = in.cache_seed;
    const std::size_t n = in.cols.size();
    const double nd = static_cast<double>(n);

    // util: hash64 and FlatMap::find over the id column.
    {
      std::uint64_t acc = 0;
      const std::uint64_t t0 = now_ns();
      for (const std::uint64_t id : in.cols.ids) acc ^= cdn::hash64(id);
      r.hash64_ns = ns_per(t0, nd);
      keep(acc);
    }

    // Bare access() loops: the policies with no driver around them.
    auto bare = [&](const char* policy) {
      const CachePtr c = cdn::make_cache(policy, in.capacity, seed);
      return bare_loop_ns(*c, in.cols);
    };
    r.lru_ns = bare("LRU");
    r.scip_ns = bare("SCIP");
    r.s4lru_ns = bare("S4LRU");
    r.tinylfu_ns = bare("TinyLFU");
    r.orch_ns = bare("Orchestrator");

    // sim: LRU through simulate(), plain and decorated.
    {
      const CachePtr plain = cdn::make_cache("LRU", in.capacity, seed);
      const Pass ref = replay(*plain, in.cols);
      r.lru_sim_ns = ref.seconds * 1e9 / nd;
      TimedCache timed(cdn::make_cache("LRU", in.capacity, seed), true);
      const Pass traced = replay(timed, in.cols);
      checks.expect(cdn::deterministic_equal(ref.result, traced.result),
                    "decorated LRU replay equals the plain replay");
      if (first) {
        lru_hit = std::move(timed.hit_samples());
        lru_miss = std::move(timed.miss_samples());
      }
      cdn::FlatMap<std::uint64_t, std::uint32_t> resident;
      timed.inner().for_each_resident([&](std::uint64_t id, std::uint64_t) {
        resident.insert(id, 1);
        return true;
      });
      std::uint64_t found = 0;
      const std::uint64_t t0 = now_ns();
      for (const std::uint64_t id : in.cols.ids) {
        found += resident.find(id) != nullptr ? 1 : 0;
      }
      r.flatmap_find_ns = ns_per(t0, nd);
      keep(found);
    }

    // core: SCIP plain, collecting, traced+collecting, and AoS.
    {
      {
        // Warm the allocator so the timed passes below all reuse memory.
        const CachePtr warm = cdn::make_cache("SCIP", in.capacity, seed);
        (void)replay(*warm, in.cols);
      }
      SpanThread spans(first ? &sinks[0] : nullptr);
      const CachePtr plain = cdn::make_cache("SCIP", in.capacity, seed);
      const Pass a = replay(*plain, in.cols);
      const CachePtr counted = cdn::make_cache("SCIP", in.capacity, seed);
      const Pass c = replay(*counted, in.cols, collect);
      TimedCache timed(cdn::make_cache("SCIP", in.capacity, seed), true);
      const Pass b = replay(timed, in.cols, collect);
      const CachePtr aos_cache = cdn::make_cache("SCIP", in.capacity, seed);
      const std::uint64_t t0 = now_ns();
      const cdn::SimResult aos = cdn::simulate(*aos_cache, in.trace);
      const double aos_s = static_cast<double>(now_ns() - t0) * 1e-9;

      checks.expect(cdn::deterministic_equal(b.result, c.result),
                    "traced SCIP replay equals the untraced replay, "
                    "counters included");
      checks.expect(same_decisions(a.result, c.result),
                    "collecting policy metrics changes no SCIP decision");
      checks.expect(cdn::deterministic_equal(aos, a.result),
                    "SCIP SoA replay equals AoS replay");
      r.aos_over_soa = aos_s / a.seconds;
      r.collect_ns = (c.seconds - a.seconds) * 1e9 / nd;
      r.untraced_s += c.seconds;
      r.traced_s += b.seconds;
      if (first) {
        scip_ref = a.result;
        scip_counted = c.result;
        scip_hit = std::move(timed.hit_samples());
        scip_miss = std::move(timed.miss_samples());
      }
    }

    // core: orchestrator hand-offs — the slowest access() that switched.
    if (first) {
      CachePtr c = cdn::make_cache("Orchestrator", in.capacity, seed);
      auto* orch = dynamic_cast<cdn::OrchestratorCache*>(c.get());
      checks.expect(orch != nullptr, "registry builds an OrchestratorCache");
      if (orch != nullptr) {
        std::uint64_t worst = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t before = orch->switches();
          const std::uint64_t t0 = now_ns();
          (void)orch->access(in.cols.request_at(i));
          const std::uint64_t dt = now_ns() - t0;
          if (orch->switches() != before) worst = std::max(worst, dt);
        }
        orch_switches = static_cast<double>(orch->switches());
        orch_switch_us_max = static_cast<double>(worst) * 1e-3;
      }
    }

    ServeOptions traced_opt;
    traced_opt.traced = true;
    traced_opt.spans = &client_sinks;
    if (!first) {
      for (auto& sink : client_sinks) sink.clear();
    }

    // srv: untraced pass, then a pass with every shard policy decorated.
    {
      cdn::srv::ShardedCache plain(shard_config(in));
      ServeResult u = serve_sharded(plain, in, {});
      check_sharded(plain, u, checks);
      checks.expect(u.call_ns.supported(0.99),
                    "access_batch latency has at least 10 samples beyond "
                    "its p99");
      batch_p99_us = std::min(batch_p99_us, u.call_ns.percentile(0.99) * 1e-3);
      std::vector<TimedCache*> shards;
      cdn::srv::ShardedCache traced(
          shard_config(in),
          [&](std::uint64_t cap, std::size_t i) -> CachePtr {
            auto c = std::make_unique<TimedCache>(
                cdn::make_cache("SCIP", cap, seed + i), false);
            shards.push_back(c.get());
            return c;
          });
      const ServeResult t = serve_sharded(traced, in, traced_opt);
      check_sharded(traced, t, checks);
      std::uint64_t policy = 0;
      for (const TimedCache* c : shards) policy += c->access_ns();
      const double issued = static_cast<double>(t.issued);
      r.srv_policy_ns = static_cast<double>(policy) / issued;
      r.srv_self_ns = static_cast<double>(t.busy_ns - policy) / issued;
      r.srv_busy_frac = static_cast<double>(t.busy_ns) /
                        (static_cast<double>(clients) * t.wall_s * 1e9);
      r.untraced_s += u.wall_s;
      r.traced_s += t.wall_s;
      if (first) {
        const std::vector<cdn::srv::ShardStats> snap = traced.snapshot();
        std::uint64_t most = 0;
        for (const cdn::srv::ShardStats& sh : snap) {
          most = std::max(most, sh.requests);
        }
        request_skew = static_cast<double>(most) *
                       static_cast<double>(snap.size()) / issued;
        occupancy_skew = cdn::srv::occupancy_skew(snap);
      }
    }

    // cluster: untraced pass, then a pass with every node decorated. The
    // cluster's warm transfer enumerates residents only through a
    // QueueCache downcast, which the decorator hides, so the decorated
    // pass hands off cold: membership times and migration counts come from
    // the untraced pass.
    {
      cdn::cluster::ClusterCache plain(cluster_config(in));
      ServeResult u = serve_cluster(plain, in, {});
      check_cluster(plain, u, checks);
      checks.expect(u.call_ns.supported(0.99),
                    "cluster window latency has at least 10 samples beyond "
                    "its p99");
      window_p99_us =
          std::min(window_p99_us, u.call_ns.percentile(0.99) * 1e-3);
      const cdn::cluster::ClusterTotals tot = plain.totals();
      checks.expect(tot.migrated_keys > 0,
                    "join/leave warm-transferred residents");
      std::vector<TimedCache*> nodes;
      cdn::cluster::ClusterCache traced(
          cluster_config(in),
          [&](std::uint64_t cap, std::size_t i) -> CachePtr {
            auto c = std::make_unique<TimedCache>(
                cdn::make_cache("SCIP", cap, seed + i), false);
            nodes.push_back(c.get());
            return c;
          });
      ServeResult t = serve_cluster(traced, in, traced_opt);
      check_cluster(traced, t, checks);
      std::uint64_t node = 0, probe = 0;
      for (const TimedCache* c : nodes) {
        node += c->access_ns();
        probe += c->probe_ns();
      }
      const double issued = static_cast<double>(t.issued);
      r.cluster_node_ns = static_cast<double>(node) / issued;
      r.cluster_probe_ns = static_cast<double>(probe) / issued;
      r.cluster_self_ns = static_cast<double>(t.busy_ns) / issued -
                          r.cluster_node_ns - r.cluster_probe_ns;
      r.join_ms = u.join_ms;
      r.leave_ms = u.leave_ms;
      r.untraced_s += u.wall_s;
      r.traced_s += t.wall_s;
      if (first) {
        cluster_access = std::move(t.access_ns);
        ct = tot;
      }
    }
    if (first) {
      for (std::size_t w = 0; w < clients; ++w) {
        sinks[1 + w] = client_sinks[w];
      }
    }
    rounds.push_back(r);
  } while (clock.another_round());

  checks.expect(spans_share_request_ids(sinks),
                "every child span carries its parent's request id");
  checks.expect(scip_hit.supported(0.99) && scip_miss.supported(0.99),
                "SCIP hit and miss timings have 10 samples beyond p99");
  checks.expect(cluster_access.supported(0.99),
                "cluster access timings have 10 samples beyond p99");
  if (!cfg.spans_path.empty()) write_spans(cfg.spans_path, sinks);

  auto med = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    return median(v);
  };
  const double lru_ns = med(&Round::lru_ns);
  const double scip_ns = med(&Round::scip_ns);
  const double orch_ns = med(&Round::orch_ns);
  const double expert_sum =
      lru_ns + med(&Round::s4lru_ns) + med(&Round::tinylfu_ns);
  const std::string& mj = scip_counted.metrics_json;
  const double decisions = counter(mj, "scip.prom_decisions");
  const double demotions = counter(mj, "scip.prom_demotions");
  std::vector<double> overhead;
  for (const Round& r : rounds) overhead.push_back(r.traced_s / r.untraced_s);

  report.add("trace.generate_s", st.generate_s, "s");
  report.add("trace.stress_s", st.stress_s, "s");
  report.add("trace.columns_s", st.columns_s, "s");
  report.add("trace.partition_s", st.partition_s, "s");
  report.add("util.hash64_ns", med(&Round::hash64_ns), "ns");
  report.add("util.flatmap_find_ns", med(&Round::flatmap_find_ns), "ns");
  report.add("sim.lru_access_ns", lru_ns, "ns");
  report.add("sim.lru_hit_ns_p50", lru_hit.percentile(0.5), "ns");
  report.add("sim.lru_miss_ns_p50", lru_miss.percentile(0.5), "ns");
  report.add("sim.driver_ns", med(&Round::lru_sim_ns) - lru_ns, "ns");
  report.add("sim.aos_over_soa", med(&Round::aos_over_soa), "ratio");
  report.add("core.scip_hit_ns_p50", scip_hit.percentile(0.5), "ns");
  report.add("core.scip_hit_ns_p99", scip_hit.percentile(0.99), "ns");
  report.add("core.scip_miss_ns_p50", scip_miss.percentile(0.5), "ns");
  report.add("core.scip_miss_ns_p99", scip_miss.percentile(0.99), "ns");
  report.add("core.scip_over_lru", scip_ns / lru_ns, "ratio");
  report.add("core.scip_mru_inserts", counter(mj, "scip.miss_mru_inserts"),
             "count");
  report.add("core.scip_lru_inserts", counter(mj, "scip.miss_lru_inserts"),
             "count");
  report.add("core.scip_prom_decisions", decisions, "count");
  report.add("core.scip_prom_demotions", demotions, "count");
  report.add("core.scip_duel_feeds",
             counter(mj, "scip.miss_duel_feeds") +
                 counter(mj, "scip.prom_duel_feeds"),
             "count");
  report.add("core.scip_lr_restarts", counter(mj, "scip.lr_restarts"),
             "count");
  report.add("core.scip_demote_frac",
             decisions > 0 ? demotions / decisions : 0.0, "ratio");
  report.add("core.scip_metadata_mib",
             static_cast<double>(scip_ref.metadata_peak_bytes) /
                 (1024.0 * 1024.0),
             "MiB");
  report.add("core.orch_ns", orch_ns, "ns");
  report.add("core.orch_expert_sum_ns", expert_sum, "ns");
  report.add("core.orch_self_ns", orch_ns - expert_sum, "ns");
  report.add("core.orch_switches", orch_switches, "count");
  report.add("core.orch_switch_access_us_max", orch_switch_us_max, "us");
  report.add("policies.s4lru_ns", med(&Round::s4lru_ns), "ns");
  report.add("policies.tinylfu_ns", med(&Round::tinylfu_ns), "ns");
  report.add("obs.collect_ns", med(&Round::collect_ns), "ns");
  report.add("srv.policy_ns", med(&Round::srv_policy_ns), "ns");
  report.add("srv.self_ns", med(&Round::srv_self_ns), "ns");
  report.add("srv.busy_frac", med(&Round::srv_busy_frac), "ratio");
  report.add("srv.request_skew", request_skew, "ratio");
  report.add("srv.occupancy_skew", occupancy_skew, "ratio");
  report.add("srv.batch_p99_us", batch_p99_us, "us");
  report.add("cluster.access_ns_p50", cluster_access.percentile(0.5), "ns");
  report.add("cluster.access_ns_p99", cluster_access.percentile(0.99), "ns");
  report.add("cluster.node_ns", med(&Round::cluster_node_ns), "ns");
  report.add("cluster.probe_ns", med(&Round::cluster_probe_ns), "ns");
  report.add("cluster.self_ns", med(&Round::cluster_self_ns), "ns");
  report.add("cluster.peer_fills", static_cast<double>(ct.peer_fills), "count");
  report.add("cluster.origin_fetches", static_cast<double>(ct.origin_fetches),
             "count");
  report.add("cluster.hot_spread_requests",
             static_cast<double>(ct.hot_spread_requests), "count");
  report.add("cluster.migrated_keys", static_cast<double>(ct.migrated_keys),
             "count");
  report.add("cluster.migrated_bytes", static_cast<double>(ct.migrated_bytes),
             "bytes");
  report.add("cluster.peer_fill_frac",
             static_cast<double>(ct.peer_fills) /
                 static_cast<double>(ct.peer_fills + ct.origin_fetches),
             "ratio");
  report.add("cluster.join_ms", med(&Round::join_ms), "ms");
  report.add("cluster.leave_ms", med(&Round::leave_ms), "ms");
  report.add("cluster.window_p99_us", window_p99_us, "us");
  report.add("bench.trace_overhead", median(overhead) - 1.0, "ratio");

  report.fact("rounds", static_cast<double>(rounds.size()));
  report.fact("scip_hit_samples", static_cast<double>(scip_hit.count()));
  report.fact("scip_miss_samples", static_cast<double>(scip_miss.count()));
  report.fact("lru_hit_samples", static_cast<double>(lru_hit.count()));
  report.fact("lru_miss_samples", static_cast<double>(lru_miss.count()));
  report.fact("cluster_access_samples",
              static_cast<double>(cluster_access.count()));
  std::size_t span_count = 0;
  for (const auto& sink : sinks) span_count += sink.size();
  report.fact("spans", static_cast<double>(span_count));
}

}  // namespace perfbench
