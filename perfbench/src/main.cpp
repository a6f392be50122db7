// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--commit SHA]
//             [--fault none|flip-hit|drop-request] [--report FILE]
//             [--spans FILE]
//
// Prints one "report" line (build fingerprint, workload facts, checks) and,
// last, the result object {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 all output checks passed, 1 a check failed, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "runs.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

namespace json = cdn::obs::json;

struct Args {
  RunConfig run;
  int trace = 0;
  std::string commit = "unknown";
  std::string report_path;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload replay-hit|replay-miss|serve-flash"
               " --seed N --seconds S --trace 0|1\n"
               "                 [--scale F] [--commit SHA]\n"
               "                 [--fault none|flip-hit|drop-request]"
               " [--report FILE] [--spans FILE]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a, std::string& err) {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  a.run.params.workers = std::min<std::size_t>(4, hw);
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.run.params.name = v;
    } else if (k == "--seed") {
      a.run.params.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.run.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--scale") {
      a.run.params.scale = std::strtod(v.c_str(), &end);
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--fault") {
      a.run.fault = v;
    } else if (k == "--report") {
      a.report_path = v;
    } else if (k == "--spans") {
      a.run.spans_path = v;
    } else {
      err = "unknown option " + k;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      err = "bad value for " + k + ": " + v;
      return false;
    }
  }
  if (!known_workload(a.run.params.name)) {
    err = "unknown workload '" + a.run.params.name + "'";
  } else if (a.trace != 0 && a.trace != 1) {
    err = "--trace must be 0 or 1";
  } else if (!(a.run.seconds > 0.0) || !(a.run.params.scale > 0.0)) {
    err = "--seconds and --scale must be positive";
  } else if (a.run.fault != "none" && a.run.fault != "flip-hit" &&
             a.run.fault != "drop-request") {
    err = "unknown fault '" + a.run.fault + "'";
  }
  return err.empty();
}

json::Value fingerprint(const Args& a) {
  json::Value fp{json::Object{}};
  fp.set("compiler", PERFBENCH_COMPILER);
  fp.set("build_type", PERFBENCH_BUILD_TYPE);
  fp.set("flags", PERFBENCH_CXX_FLAGS);
  fp.set("nproc", static_cast<std::uint64_t>(
                      std::thread::hardware_concurrency()));
  fp.set("commit", a.commit);
  return fp;
}

int run(const Args& a) {
  Checks checks;
  Report report;
  if (a.trace == 1) {
    run_traced(a.run, checks, report);
  } else {
    run_end_to_end(a.run, checks, report);
    report.add("ok_frac",
               static_cast<double>(checks.attempted() - checks.failed()) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, checks.attempted())),
               "ratio");
  }
  const bool correct = checks.failed() == 0 && checks.attempted() > 0;

  json::Value metrics{json::Object{}};
  for (const Metric& m : report.metrics) {
    json::Value e{json::Object{}};
    e.set("value", m.value);
    e.set("unit", m.unit);
    metrics.set(m.name, std::move(e));
  }
  json::Value facts{json::Object{}};
  for (const auto& [k, v] : report.facts) facts.set(k, v);
  json::Array failures;
  for (const std::string& f : checks.failures()) failures.emplace_back(f);

  json::Value full{json::Object{}};
  full.set("workload", a.run.params.name);
  full.set("seed", a.run.params.seed);
  full.set("seconds", a.run.seconds);
  full.set("trace", a.trace);
  full.set("scale", a.run.params.scale);
  full.set("workers", static_cast<std::uint64_t>(a.run.params.workers));
  full.set("fault", a.run.fault);
  full.set("fingerprint", fingerprint(a));
  full.set("facts", std::move(facts));
  json::Value series{json::Object{}};
  for (const auto& [k, v] : report.series) series.set(k, v);
  full.set("series", std::move(series));
  full.set("checks_failed", json::Value(std::move(failures)));
  full.set("metrics", metrics);
  if (!a.report_path.empty()) {
    std::ofstream(a.report_path) << full.dump(2) << "\n";
  }
  std::printf("report %s\n", full.dump().c_str());

  json::Value result{json::Object{}};
  result.set("correct", correct);
  result.set("attempted", checks.attempted());
  result.set("failed", checks.failed());
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  for (const std::string& f : checks.failures()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string err;
  if (!perfbench::parse(argc, argv, args, err)) {
    return perfbench::usage(err.c_str());
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
