// Workload definitions and the timed set-up path: trace generation, the
// stressor chain, the SoA columns, the per-client stream partition and one
// construction of every cache the run drives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/columns.hpp"
#include "trace/request.hpp"
#include "common.hpp"

namespace perfbench {

inline constexpr double kCapacityFrac = 0.117;  // paper's "128 GB" point
inline constexpr std::size_t kBatch = 256;      // requests per client call
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kNodes = 4;
/// Independently seeded instances of the workload per run. The generators'
/// heavy-tailed sizes and thrashing-band loops make one trace's miss ratio
/// (and so its speed) jump between seeds; rounds cycle through the
/// instances so a run measures the workload rather than one draw of it.
inline constexpr std::size_t kInstances = 5;

struct WorkloadParams {
  std::string name;       ///< "replay-hit" | "replay-miss" | "serve-flash"
  std::uint64_t seed = 1;
  double scale = 1.0;     ///< multiplies the base generator's request count
  std::size_t workers = 4;
};

/// True if `name` is one of the benchmark's workloads.
[[nodiscard]] bool known_workload(const std::string& name);

/// Closed-loop client streams: client w owns the 256-request batches
/// b with b % W == w. batch_first[w][k] is the trace index of the first
/// request of client w's k-th batch.
struct Partition {
  std::vector<std::vector<std::uint64_t>> batch_first;
  std::uint64_t batches = 0;
};

/// One seeded instance of the workload.
struct Instance {
  std::uint64_t cache_seed = 0;  ///< policy seed (shard/node j adds j)
  cdn::Trace trace;
  cdn::TraceColumns cols;  ///< id/size columns only
  Partition part;
  std::uint64_t capacity = 0;
  std::uint64_t wss = 0;
};

/// Set-up stage times of one instance, or medians over instances.
/// `scaled_total_s` rescales each instance's total by the mean of the host
/// probes taken just before and after it (HostProbe).
struct SetupTimes {
  double generate_s = 0.0;  ///< generate_trace
  double stress_s = 0.0;    ///< stressor chain, WSS and capacity
  double columns_s = 0.0;   ///< to_columns
  double partition_s = 0.0; ///< client batch lists
  double total_s = 0.0;     ///< the above plus one construction of each cache
  double scaled_total_s = 0.0;
};

struct Setup {
  std::vector<Instance> inputs;
  SetupTimes times;  ///< medians over the instances
};

/// Builds every instance, timing each, then builds instance 0 again and
/// checks it comes out identical.
[[nodiscard]] Setup build_setup(const WorkloadParams& p,
                                const HostProbe& probe, Checks& checks);

}  // namespace perfbench
