// The two kinds of run. The end-to-end run measures with tracing off; the
// traced run wraps each layer to attribute time and emits the per-layer
// metrics. Both repeat whole rounds, cycling through the workload's
// instances, until the time budget is spent.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "sim/simulator.hpp"
#include "workload.hpp"

namespace perfbench {

struct RunConfig {
  WorkloadParams params;
  double seconds = 10.0;
  /// Self-test fault: "none", "flip-hit" or "drop-request".
  std::string fault = "none";
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// Round scheduler for a time budget: another round starts only if a round
/// as long as the previous one still ends within the budget, so a run
/// measures at most its budget (plus the first round, which always runs).
class RoundClock {
 public:
  explicit RoundClock(double seconds)
      : deadline_(now_ns() + static_cast<std::uint64_t>(seconds * 1e9)),
        round_start_(now_ns()) {}
  [[nodiscard]] bool another_round() {
    const std::uint64_t now = now_ns();
    const std::uint64_t last = now - round_start_;
    round_start_ = now;
    return now + last <= deadline_;
  }

 private:
  std::uint64_t deadline_;
  std::uint64_t round_start_;
};

/// One simulate() call timed from the caller's side.
struct Pass {
  cdn::SimResult result;
  double seconds = 0.0;
};
[[nodiscard]] Pass replay(Cache& cache, const cdn::TraceColumns& cols,
                          const cdn::SimOptions& opts = {});

void run_end_to_end(const RunConfig& cfg, Checks& checks, Report& report);
void run_traced(const RunConfig& cfg, Checks& checks, Report& report);

}  // namespace perfbench
