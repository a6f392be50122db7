// Closed-loop serving drivers for the sharded cache and the cluster. One
// pass replays every client stream of a Partition through a fresh front end
// with one thread per client, each sending its next batch only after the
// previous call returned.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_cache.hpp"
#include "common.hpp"
#include "srv/sharded_cache.hpp"
#include "workload.hpp"

namespace perfbench {

/// SCIP on 4 shards / 4 nodes with the instance's capacity and seed.
[[nodiscard]] cdn::srv::ShardedCacheConfig shard_config(const Instance& in);
[[nodiscard]] cdn::cluster::ClusterCacheConfig cluster_config(
    const Instance& in);

struct ServeOptions {
  /// Record spans and per-access times (the traced run).
  bool traced = false;
  /// Self-test fault: client 0 silently skips the last request of its
  /// first batch while still counting it as issued.
  bool drop_one_request = false;
  /// Per-thread span buffers (one per client) when traced.
  std::vector<std::vector<Span>>* spans = nullptr;
};

struct ServeResult {
  double wall_s = 0.0;
  std::uint64_t issued = 0;
  Samples call_ns;    ///< per access_batch call / per 256-request window
  Samples access_ns;  ///< cluster, traced: per access() call
  std::uint64_t busy_ns = 0;  ///< sum of call_ns
  double join_ms = 0.0;
  double leave_ms = 0.0;
};

/// One pass of `access_batch` calls over `in` against `cache`.
[[nodiscard]] ServeResult serve_sharded(cdn::srv::ShardedCache& cache,
                                        const Instance& in,
                                        const ServeOptions& opt);

/// One pass of `access` calls in 256-request windows against `cache`. The
/// client that starts the window at 1/3 of the stream first calls join();
/// the one at 2/3 first calls leave(0).
[[nodiscard]] ServeResult serve_cluster(cdn::cluster::ClusterCache& cache,
                                        const Instance& in,
                                        const ServeOptions& opt);

/// Output checks after a pass: every issued request was counted, and every
/// shard/node holds used_bytes <= capacity; the cluster also conserves
/// request flow (requests == hits + peer fills + origin fetches).
void check_sharded(const cdn::srv::ShardedCache& cache, const ServeResult& r,
                   Checks& checks);
void check_cluster(const cdn::cluster::ClusterCache& cache,
                   const ServeResult& r, Checks& checks);

}  // namespace perfbench
