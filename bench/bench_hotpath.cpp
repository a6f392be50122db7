// Hot-path index microbenchmark: cdn::FlatMap vs std::unordered_map.
//
// Every simulated request funnels through the id -> slot indexes of
// LruQueue / GhostList / SegmentedQueue (the S4LRU hosts), so the map's
// find/insert/erase/touch cost is the simulator's per-request floor. This
// bench measures exactly that mix two ways:
//
//   microbench   a pre-generated op stream (find-hit, find-miss, touch,
//                erase+insert churn) at simulator-realistic occupancy runs
//                through both map types; identical keys, identical order,
//                checksums compared, best-of-trials wall time. FlatMap must
//                be >= 1.2x the std::unordered_map op throughput or the
//                bench exits non-zero — this is the PR's perf claim, kept
//                enforceable.
//   end-to-end   simulate() replay of LRU and SCIP over the CDN-T-like
//                workload (the indexes under test in their real seats),
//                best-of-trials requests/sec for the trajectory record.
//
// Output: BENCH_hotpath.json (schema "cdn-bench-report") under
// $CDN_BENCH_JSON_DIR (default "."): two microbench rows (policy "FlatMap"
// / "unordered_map", trace "hotpath-mix") and one row per replay policy.
// Exit codes: 0 ok, 1 speedup/cross-check/validation failure, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/registry.hpp"
#include "obs/bench_report.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace cdn {
namespace {

struct Args {
  bool smoke = false;
  std::size_t live = 60'000;   ///< steady-state live keys (~LruQueue size)
  std::size_t ops = 4'000'000; ///< mixed ops per trial
  std::size_t trials = 5;      ///< best-of (min wall) trials
  double scale = 0.25;         ///< CDN-T-like scale for the replay half
  /// Ratcheted floor on the advisor's overhead: SCIP replay wall time must
  /// stay within this factor of LRU's on the same trace (best-of-trials
  /// each). The pre-optimization gap was ~2.5x. 0 = auto: 1.5 at smoke
  /// scale (the CI-enforced floor — ghost state is mostly cache-resident,
  /// so the ratio isolates advisor code overhead), 1.75 at full scale
  /// (the ghost working set spills the LLC and the ratio additionally
  /// carries SCIP's extra cold DRAM lines per miss; measured 1.59-1.60
  /// best-of-5 on the reference host).
  double max_scip_ratio = 0.0;
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_hotpath [--smoke] [--live N] [--ops N]\n"
               "                     [--trials N] [--scale F]\n"
               "                     [--max-scip-ratio F  (0 = auto:\n"
               "                      1.5 smoke / 1.75 full scale)]\n");
  return 2;
}

// ------------------------------------------------------------ op stream --

enum class Op : std::uint8_t {
  kFindHit,   ///< lookup of a live key (LruQueue::find on a resident id)
  kFindMiss,  ///< lookup of an absent key (every miss consults the index)
  kTouch,     ///< lookup + value write (touch_mru updates the slot index)
  kChurn,     ///< erase live key + insert fresh key (evict + admit)
};

struct OpRec {
  Op op;
  std::uint64_t key;   ///< lookup/erase target
  std::uint64_t key2;  ///< kChurn: the freshly admitted key
};

/// The id a warm fill / op stream uses for logical object `i`. Object ids
/// are "hash of the URL/key in a real deployment" (trace/request.hpp), so
/// the bench spreads its logical counters through hash64 — a bijection, so
/// ids stay distinct. Benchmarking with raw sequential counters instead
/// would hand std::unordered_map two artifacts real ids do not have:
/// libstdc++'s identity hash makes modulo-by-prime nearly free on small
/// keys, and FIFO eviction order becomes sequential-bucket order, which
/// the prefetcher turns into an artificial churn speedup.
std::uint64_t object_id(std::uint64_t i) { return hash64(i); }

/// Pre-generates the op stream so both maps replay byte-identical work and
/// RNG cost stays outside the timed loop. Live keys are managed as a FIFO
/// ring (index i holds the i-th oldest), matching cache churn where the
/// erased id is old and the inserted id is new; fresh admissions use the
/// >= 2^40 logical range the trace generator assigns to one-hit objects.
std::vector<OpRec> make_ops(std::size_t live, std::size_t n_ops,
                            std::uint64_t seed) {
  std::vector<std::uint64_t> ring(live);
  for (std::size_t i = 0; i < live; ++i) ring[i] = object_id(i);
  std::size_t oldest = 0;
  std::uint64_t next_fresh = 1ULL << 40;

  Rng rng(seed);
  std::vector<OpRec> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 50) {  // 50% resident lookups
      ops.push_back({Op::kFindHit, ring[rng.below(live)], 0});
    } else if (dice < 65) {  // 15% miss lookups (ids never inserted)
      ops.push_back(
          {Op::kFindMiss, (1ULL << 62) + rng.next() % (1ULL << 40), 0});
    } else if (dice < 85) {  // 20% touches
      ops.push_back({Op::kTouch, ring[rng.below(live)], 0});
    } else {  // 15% churn: evict the oldest resident, admit a fresh id
      const std::size_t slot = oldest;
      oldest = (oldest + 1) % live;
      ops.push_back({Op::kChurn, ring[slot], object_id(next_fresh)});
      ring[slot] = object_id(next_fresh);
      ++next_fresh;
    }
  }
  return ops;
}

// Uniform adapter so one replay loop serves both map types.
std::uint32_t* lookup(FlatMap<std::uint64_t, std::uint32_t>& m,
                      std::uint64_t k) {
  return m.find(k);
}
std::uint32_t* lookup(std::unordered_map<std::uint64_t, std::uint32_t>& m,
                      std::uint64_t k) {
  const auto it = m.find(k);
  return it == m.end() ? nullptr : &it->second;
}
void put(FlatMap<std::uint64_t, std::uint32_t>& m, std::uint64_t k,
         std::uint32_t v) {
  m.insert(k, v);
}
void put(std::unordered_map<std::uint64_t, std::uint32_t>& m, std::uint64_t k,
         std::uint32_t v) {
  m.emplace(k, v);
}

template <typename M>
std::uint64_t replay_ops(M& m, const std::vector<OpRec>& ops) {
  std::uint64_t checksum = 0;
  for (const OpRec& r : ops) {
    switch (r.op) {
      case Op::kFindHit:
      case Op::kFindMiss: {
        const std::uint32_t* p = lookup(m, r.key);
        checksum += p ? *p : 1;
        break;
      }
      case Op::kTouch: {
        std::uint32_t* p = lookup(m, r.key);
        if (p) checksum += ++*p;
        break;
      }
      case Op::kChurn: {
        m.erase(r.key);
        put(m, r.key2, static_cast<std::uint32_t>(r.key2));
        checksum += r.key2;
        break;
      }
    }
  }
  return checksum;
}

struct MicroResult {
  double best_seconds = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t footprint_bytes = 0;
};

template <typename M>
MicroResult run_micro(const std::vector<OpRec>& ops, std::size_t live,
                      std::size_t trials, std::uint64_t footprint) {
  MicroResult out;
  for (std::size_t t = 0; t < trials; ++t) {
    M m;
    // Untimed warm fill to steady-state occupancy (values = slot indexes,
    // as in LruQueue).
    for (std::size_t k = 0; k < live; ++k) {
      put(m, object_id(k), static_cast<std::uint32_t>(k));
    }
    Stopwatch sw;
    const std::uint64_t checksum = replay_ops(m, ops);
    const double secs = sw.seconds();
    if (t == 0) {
      out.checksum = checksum;
      out.footprint_bytes = footprint ? footprint : 0;
    } else if (checksum != out.checksum) {
      // Any divergence across trials means nondeterminism in the map.
      std::fprintf(stderr, "FAIL: checksum diverged across trials\n");
      std::exit(1);
    }
    if (t == 0 || secs < out.best_seconds) out.best_seconds = secs;
  }
  return out;
}

obs::json::Value micro_row(const std::string& policy, std::size_t n_ops,
                           double tps, std::uint64_t footprint,
                           std::size_t live, std::size_t trials) {
  obs::json::Value row;
  row.set("policy", policy);
  row.set("trace", "hotpath-mix");
  row.set("requests", static_cast<std::uint64_t>(n_ops));
  row.set("tps", tps);
  // Miss-ratio axes do not apply to a raw map benchmark; zero keeps the
  // rows schema-conformant so the trajectory differ can parse them.
  row.set("object_miss_ratio", 0.0);
  row.set("byte_miss_ratio", 0.0);
  row.set("warm_object_miss_ratio", 0.0);
  row.set("warm_byte_miss_ratio", 0.0);
  row.set("metadata_peak_bytes", footprint);
  row.set("live_keys", static_cast<std::uint64_t>(live));
  row.set("trials", static_cast<std::uint64_t>(trials));
  return row;
}

int run(const Args& args) {
  obs::BenchReport report("hotpath");

  // --- Microbench: identical op stream through both map types. ----------
  std::printf("generating %zu ops at %zu live keys...\n", args.ops,
              args.live);
  const std::vector<OpRec> ops = make_ops(args.live, args.ops, /*seed=*/71);

  using Flat = FlatMap<std::uint64_t, std::uint32_t>;
  using Umap = std::unordered_map<std::uint64_t, std::uint32_t>;

  // Footprints at steady state, for the metadata column: FlatMap's slot
  // array vs unordered_map's nodes + bucket array (estimated: the node
  // layout is libstdc++'s hash node of next-pointer + hash + pair).
  Flat flat_probe;
  Umap umap_probe;
  for (std::size_t k = 0; k < args.live; ++k) {
    flat_probe.insert(object_id(k), 0);
    umap_probe.emplace(object_id(k), 0);
  }
  const std::uint64_t flat_bytes =
      flat_probe.capacity() * (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 1);
  const std::uint64_t umap_bytes =
      umap_probe.bucket_count() * sizeof(void*) +
      umap_probe.size() *
          (sizeof(std::pair<const std::uint64_t, std::uint32_t>) +
           2 * sizeof(void*));

  const MicroResult flat = run_micro<Flat>(ops, args.live, args.trials,
                                           flat_bytes);
  const MicroResult umap = run_micro<Umap>(ops, args.live, args.trials,
                                           umap_bytes);
  if (flat.checksum != umap.checksum) {
    std::fprintf(stderr,
                 "FAIL: FlatMap and unordered_map disagree on the op "
                 "stream (checksums %llu vs %llu)\n",
                 static_cast<unsigned long long>(flat.checksum),
                 static_cast<unsigned long long>(umap.checksum));
    return 1;
  }

  const double n_ops = static_cast<double>(ops.size());
  const double flat_tps = n_ops / flat.best_seconds;
  const double umap_tps = n_ops / umap.best_seconds;
  const double speedup = flat_tps / umap_tps;

  Table table({"index", "Mops/s", "footprint KiB", "speedup"});
  table.add_row({"FlatMap", Table::fmt(flat_tps / 1e6, 1),
                 Table::fmt(static_cast<double>(flat_bytes) / 1024.0, 0),
                 Table::fmt(speedup, 2)});
  table.add_row({"unordered_map", Table::fmt(umap_tps / 1e6, 1),
                 Table::fmt(static_cast<double>(umap_bytes) / 1024.0, 0),
                 "1.00"});
  std::printf("\n== Hot-path index microbench (%zu ops, %zu live keys, "
              "best of %zu) ==\n%s",
              ops.size(), args.live, args.trials, table.str().c_str());

  obs::json::Value flat_row = micro_row("FlatMap", ops.size(), flat_tps,
                                        flat_bytes, args.live, args.trials);
  flat_row.set("speedup_vs_unordered_map", speedup);
  report.add_row(std::move(flat_row));
  report.add_row(micro_row("unordered_map", ops.size(), umap_tps, umap_bytes,
                           args.live, args.trials));

  // --- End-to-end: replay rps with the flat indexes in their real seats. -
  // Replay streams the struct-of-arrays id/size columns (the only fields
  // the queue policies read): 16 bytes of trace traffic per request instead
  // of a 32-byte Request record, and the id column feeds the replay loop's
  // lookahead prefetch. Results are deterministically equal to replaying
  // the AoS trace (test_simulator pins that).
  const Trace trace = generate_trace(cdn_t_like(args.scale));
  const TraceColumns cols =
      to_columns(trace, /*keep_time=*/false, /*keep_next=*/false);
  const std::uint64_t capacity = static_cast<std::uint64_t>(
      0.117 * static_cast<double>(trace.working_set_bytes()));
  Table e2e({"policy", "replay rps", "warm obj miss", "metadata KiB"});
  // Interleave the two policies' trials (LRU, SCIP, LRU, SCIP, ...) instead
  // of running each policy's trials as a contiguous phase. The ratio gate
  // below divides one wall time by the other, and on a busy or
  // frequency-scaling host two sequential phases sample different machine
  // conditions — phase ordering alone swung the measured ratio by tens of
  // percent. Adjacent trials see near-identical conditions, so best-of
  // picks both policies' peaks from the same windows and the ratio isolates
  // the advisor overhead it is meant to bound.
  constexpr const char* kPolicies[] = {"LRU", "SCIP"};
  SimResult best[2];
  for (std::size_t t = 0; t < args.trials; ++t) {
    for (std::size_t p = 0; p < 2; ++p) {
      auto cache = make_cache(kPolicies[p], capacity);
      SimResult r = simulate(*cache, cols);
      if (t == 0 || r.wall_seconds < best[p].wall_seconds) {
        best[p] = std::move(r);
      }
    }
  }
  const double lru_wall = best[0].wall_seconds;
  const double scip_wall = best[1].wall_seconds;
  for (std::size_t p = 0; p < 2; ++p) {
    const SimResult& b = best[p];
    e2e.add_row({kPolicies[p], Table::fmt(b.tps(), 0),
                 Table::pct(b.warm_object_miss_ratio()),
                 Table::fmt(static_cast<double>(b.metadata_peak_bytes) /
                                1024.0,
                            0)});
    obs::json::Value row = sim_result_row(b);
    if (p == 1 && lru_wall > 0.0) {
      row.set("scip_vs_lru_wall_ratio", b.wall_seconds / lru_wall);
    }
    report.add_row(std::move(row));
  }
  const double scip_ratio = lru_wall > 0.0 ? scip_wall / lru_wall : 0.0;
  std::printf("\n== End-to-end replay (%s, %zu requests, best of %zu) ==\n%s"
              "SCIP/LRU wall ratio: %.2fx (gate <= %.2fx)\n",
              trace.name.c_str(), trace.size(), args.trials,
              e2e.str().c_str(), scip_ratio, args.max_scip_ratio);

  // --- Enforce the perf claims, validate, write. ------------------------
  if (speedup < 1.2) {
    std::fprintf(stderr,
                 "FAIL: FlatMap speedup %.2fx < 1.2x over "
                 "std::unordered_map on the hot-path mix\n",
                 speedup);
    return 1;
  }
  if (scip_ratio > args.max_scip_ratio) {
    std::fprintf(stderr,
                 "FAIL: SCIP replay wall time %.2fx LRU's exceeds the "
                 "%.2fx advisor-overhead floor\n",
                 scip_ratio, args.max_scip_ratio);
    return 1;
  }
  const std::string violation = obs::validate_bench_report(report.document());
  if (!violation.empty()) {
    std::fprintf(stderr, "FAIL: BENCH_hotpath.json schema: %s\n",
                 violation.c_str());
    return 1;
  }
  const char* dir = std::getenv("CDN_BENCH_JSON_DIR");
  if (!report.write(dir ? dir : ".")) {
    std::fprintf(stderr, "FAIL: could not write %s\n",
                 report.file_name().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu rows, schema valid, speedup %.2fx)\n",
              report.file_name().c_str(), report.rows(), speedup);
  return 0;
}

}  // namespace
}  // namespace cdn

int main(int argc, char** argv) {
  cdn::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--live") {
      const char* v = next();
      if (!v) return cdn::usage();
      args.live = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--ops") {
      const char* v = next();
      if (!v) return cdn::usage();
      args.ops = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--trials") {
      const char* v = next();
      if (!v) return cdn::usage();
      args.trials = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return cdn::usage();
      args.scale = std::atof(v);
    } else if (arg == "--max-scip-ratio") {
      const char* v = next();
      if (!v) return cdn::usage();
      args.max_scip_ratio = std::atof(v);
    } else {
      return cdn::usage();
    }
  }
  if (args.smoke) {
    // CI-sized: enough ops that the timed region spans many scheduler
    // quanta (the speedup gate needs a stable ratio), small enough for
    // seconds-scale total runtime.
    args.live = 20'000;
    args.ops = 1'000'000;
    args.trials = 3;
    args.scale = 0.08;
  }
  if (args.max_scip_ratio == 0.0) {
    args.max_scip_ratio = args.smoke ? 1.5 : 1.75;
  }
  if (args.live == 0 || args.ops == 0 || args.trials == 0 ||
      args.scale <= 0.0 || args.max_scip_ratio <= 0.0) {
    return cdn::usage();
  }
  return cdn::run(args);
}
