// ClusterCache: a simulated multi-node CDN cluster behind the Cache API.
//
// N registry-constructed policy nodes (SCIP included) sit behind a
// consistent-hash ring (cluster/hash_ring.hpp). A request hashes its id
// exactly once — `access()` computes hash64(req.id) and threads it through
// ring lookup, the owning node's `access_hashed`, and every replication
// probe (the PR-6 hash-once discipline, pinned by test_cluster_cache).
//
// Hot-key replication. A windowed per-key request counter
// (HotKeyTracker, striped by key hash in StripedHotKeyTracker) classifies
// keys whose observed request rate crosses `hot_threshold` within
// `hot_window` requests as hot. Hot keys are
// *load-spread* across the first k = min(replicas, live nodes) distinct
// ring successors — request `count % k` picks the serving owner — in BOTH
// replication arms: a flash crowd must be spread for load reasons (no
// single node absorbs it), so spreading is not the experiment knob. The
// `replicate_hot` knob controls *cooperative peer fill* (ICP-style sibling
// probing): on a miss at a spread owner, the other owners are probed with
// `contains_hashed`; if one holds the object the fill is an intra-cluster
// transfer instead of an origin fetch. Peer probes never mutate any node,
// so hit/miss sequences are bitwise identical between the two arms — only
// the attribution of miss bytes (peer vs origin) differs, which makes
// "replication reduces BTO bandwidth" a deterministic comparison.
//
// Membership. `join()` adds a node (capacity equal to an initial share,
// seed = config seed + node id) and `leave()` retires one; both perform
// incremental warm-transfer rebalancing: residents are enumerated through
// `Cache::for_each_resident` (so decorated and non-queue policies hand off
// warm too), and only those whose ring owner changed (ring-adjacent
// ranges, expected 1/N of the key space) are re-inserted into their new
// owner via `access_hashed`. The old copy is
// not erased — the Cache API has no erase, and a stale replica simply ages
// out of its LRU queue (on leave, the retired node is excluded from the
// ring and stats but its object stays alive, so in-flight concurrent
// accesses never dangle). Deterministic churn scenarios drive membership
// through `ClusterCacheConfig::schedule`: events fire inside `access()`
// when the request sequence number reaches `at_request`, so a
// single-driver replay reproduces the exact same join/leave points every
// run.
//
// Misses that no owner can serve go to the pluggable BackingStore
// ("origin" / "remote" / "null") — the BTO byte counter of the paper.
//
// Locking. A request takes no cluster-wide lock. It draws a sequence
// number from one atomic counter, reads the current routing snapshot (an
// immutable {HashRing, NodeSlot*} pair published with release/acquire),
// locks its key's hot-key tracker stripe, then the node locks it visits,
// one at a time, and adds its outcome to relaxed atomic counters on the
// serving node's slot. cluster_mu_ serializes only membership: join, leave
// and schedule events, which build the next snapshot, warm-transfer under
// node locks (cluster_mu_ -> node lock, the only nesting) and publish it.
// Retired snapshots and nodes stay alive until the cluster is destroyed,
// so a request still routing on an old snapshot never dangles. DESIGN.md
// §5j "Locking" has the whole protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/backing_store.hpp"
#include "cluster/hash_ring.hpp"
#include "sim/cache.hpp"
#include "srv/shard_stats.hpp"
#include "tdc/latency_model.hpp"
#include "tdc/node.hpp"
#include "util/flat_map.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace cdn::cluster {

/// Deterministic membership change, applied inside access() immediately
/// before serving request index `at_request` (0-based, counted across the
/// cluster). Joins ignore `node` (the new node takes the next free id);
/// leaves retire the given node id.
struct MembershipEvent {
  enum class Kind : std::uint8_t { kJoin, kLeave };

  std::uint64_t at_request = 0;
  Kind kind = Kind::kJoin;
  std::uint32_t node = 0;
};

struct ClusterCacheConfig {
  std::string policy = "SCIP";  ///< registry name (core/registry.hpp)
  /// Total capacity split over the initial nodes (srv shard_capacity
  /// spread); later joiners each get an initial node-0 share.
  std::uint64_t capacity_bytes = 1ULL << 30;
  std::size_t nodes = 4;             ///< initial node count
  std::size_t vnodes_per_node = 64;  ///< ring points per node
  std::size_t replicas = 2;          ///< k-way ownership for hot keys
  bool replicate_hot = true;         ///< cooperative peer fill on miss
  std::uint32_t hot_threshold = 64;  ///< window count that makes a key hot
  std::uint64_t hot_window = 8192;   ///< tracker window, in requests
  /// Seed for node 0; node i gets seed + i. With one node this matches
  /// make_cache(policy, capacity, seed) exactly (the golden cross-check).
  std::uint64_t seed = 1;
  std::string backing = "origin";  ///< "origin" | "remote" | "null"
  tdc::LatencyModel latency{};
  /// Must be sorted by at_request (validated at construction).
  std::vector<MembershipEvent> schedule;
};

/// Windowed hot-key detector: per-key request counts over a fixed request
/// window, plus the previous window's hot set so hotness does not flicker
/// to cold at every window boundary. All probes take the caller's
/// precomputed hash64(id). Not thread-safe.
class HotKeyTracker {
 public:
  HotKeyTracker(std::uint32_t threshold, std::uint64_t window);

  /// Records one request; returns the key's count in the current window
  /// (including this request). Rolls the window first when it is full.
  std::uint32_t observe_hashed(std::uint64_t id, std::uint64_t h) {
    return observe_at_hashed(next_seq_++, id, h);
  }

  /// observe_hashed() for a request whose sequence number `seq` comes from
  /// outside (0-based, shared by every tracker that splits one request
  /// stream). The request belongs to window seq / window. One window ahead
  /// of the tracker's, the window rolls; further ahead, this tracker saw no
  /// request for a whole window, so that window's hot set was empty and
  /// both hot sets clear. A seq from an earlier window (a concurrent caller
  /// that reached the tracker late) counts in the current window.
  std::uint32_t observe_at_hashed(std::uint64_t seq, std::uint64_t id,
                                  std::uint64_t h);

  /// Hot = reached the threshold this window, or was hot last window.
  /// `count` is the value observe_hashed just returned for this request.
  [[nodiscard]] bool hot_hashed(std::uint64_t id, std::uint64_t h,
                                std::uint32_t count) const {
    return count >= threshold_ || prev_hot_.find_hashed(id, h) != nullptr;
  }

  [[nodiscard]] std::uint32_t threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::uint64_t metadata_bytes() const noexcept;

 private:
  std::uint32_t threshold_;
  std::uint64_t window_;
  std::uint64_t window_index_ = 0;  ///< seq / window of the counts held
  std::uint64_t next_seq_ = 0;      ///< observe_hashed()'s own sequence
  FlatMap<std::uint64_t, std::uint32_t> counts_;
  FlatMap<std::uint64_t, std::uint8_t> cur_hot_;   ///< crossed threshold now
  FlatMap<std::uint64_t, std::uint8_t> prev_hot_;  ///< hot set last window
};

/// One HotKeyTracker split into 2^kStripeBits stripes by the top bits of
/// hash64(id), each behind its own lock, all windowed on one shared request
/// sequence. A key always maps to the same stripe and every stripe rolls on
/// the same window index seq / window, so when `seq` is the request index
/// (a single driver) each (count, hot) answer equals that of one global
/// HotKeyTracker fed the same stream. Concurrent requests contend only when
/// their keys share a stripe.
class StripedHotKeyTracker {
 public:
  static constexpr unsigned kStripeBits = 6;

  struct Sample {
    std::uint32_t count = 0;  ///< the key's count in its window
    bool hot = false;
  };

  StripedHotKeyTracker(std::uint32_t threshold, std::uint64_t window);

  /// Records request `seq` for the key and classifies it, atomically with
  /// respect to other requests for keys of the same stripe.
  Sample observe_hashed(std::uint64_t seq, std::uint64_t id,
                        std::uint64_t h);

  [[nodiscard]] std::uint64_t metadata_bytes() const;

 private:
  struct alignas(64) Stripe {
    Stripe(std::uint32_t threshold, std::uint64_t window)
        : tracker(threshold, window) {}
    mutable SpinMutex mu;
    HotKeyTracker tracker CDN_GUARDED_BY(mu);
  };

  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// Per-node statistics: the srv ShardStats record (capacity/used/metadata
/// from the node snapshot, request counters from the cluster) plus the
/// cluster-level miss attribution and migration counters.
struct ClusterNodeStats {
  std::string name;
  bool live = true;
  srv::ShardStats shard;
  std::uint64_t peer_fills = 0;
  std::uint64_t peer_fill_bytes = 0;
  std::uint64_t origin_fetches = 0;
  std::uint64_t origin_bytes = 0;
  std::uint64_t migrated_in_keys = 0;
  std::uint64_t migrated_in_bytes = 0;
};

/// Cluster-wide sums. Flow conservation holds by construction and is
/// re-checked in tests: requests == hits + peer_fills + origin_fetches.
struct ClusterTotals {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_hit = 0;
  std::uint64_t peer_fills = 0;
  std::uint64_t peer_fill_bytes = 0;
  std::uint64_t origin_fetches = 0;
  std::uint64_t origin_bytes = 0;
  std::uint64_t origin_time_us = 0;  ///< modeled, integer microseconds
  std::uint64_t peer_time_us = 0;    ///< modeled, integer microseconds
  std::uint64_t migrated_keys = 0;
  std::uint64_t migrated_bytes = 0;
  std::uint64_t hot_spread_requests = 0;  ///< requests routed by rotation
};

/// Field-wise equality — the bitwise rerun-determinism gate for cluster
/// sweeps (bench_cluster runs every configuration twice).
[[nodiscard]] bool deterministic_equal(const ClusterTotals& a,
                                       const ClusterTotals& b) noexcept;

class ClusterCache final : public Cache {
 public:
  /// Builds every node through the policy registry.
  explicit ClusterCache(const ClusterCacheConfig& config);

  /// Builds nodes through a custom factory (capacity, node index) — used
  /// by tests to instrument node construction and pin the hash-once
  /// discipline; `config.policy` is then only used for name().
  ClusterCache(const ClusterCacheConfig& config,
               std::function<CachePtr(std::uint64_t, std::size_t)>
                   make_node_cache);

  // Cache interface (thread-safe).
  [[nodiscard]] std::string name() const override;
  bool access(const Request& req) override;
  /// Lock-free on the cluster level: only the key's tracker stripe and the
  /// node locks visited are taken, plus cluster_mu_ when a schedule event
  /// falls due at this request.
  bool access_hashed(const Request& req, std::uint64_t h) override
      CDN_EXCLUDES(cluster_mu_);
  /// True if any live node holds the object (audit semantics, not a
  /// routing probe). Reads the routing snapshot, without cluster_mu_.
  [[nodiscard]] bool contains(std::uint64_t id) const override;
  [[nodiscard]] bool contains_hashed(std::uint64_t id, std::uint64_t h)
      const override CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] std::uint64_t used_bytes() const override
      CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] std::uint64_t metadata_bytes() const override
      CDN_EXCLUDES(cluster_mu_);

  /// Adds a node (next free id) with an initial node-0 capacity share and
  /// warm-transfers the ring ranges it now owns. Returns the new node id.
  std::uint32_t join() CDN_EXCLUDES(cluster_mu_);

  /// Retires node `node` and warm-transfers its residents to their new
  /// owners. Throws if the node is not live or is the last live node.
  void leave(std::uint32_t node) CDN_EXCLUDES(cluster_mu_);

  [[nodiscard]] std::size_t node_count() const CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] std::size_t live_node_count() const
      CDN_EXCLUDES(cluster_mu_);

  /// Point-in-time per-node stats (index == node id, retired nodes
  /// included with live == false).
  [[nodiscard]] std::vector<ClusterNodeStats> node_stats() const
      CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] ClusterTotals totals() const CDN_EXCLUDES(cluster_mu_);
  [[nodiscard]] BackingStoreStats backing_stats() const
      CDN_EXCLUDES(cluster_mu_);

  // Test/audit helpers (not request-path API; each hashes internally).
  /// Current replica owner list for `id` at the configured k.
  [[nodiscard]] std::vector<std::uint32_t> owners_of(std::uint64_t id) const
      CDN_EXCLUDES(cluster_mu_);
  /// Residency probe against one specific node.
  [[nodiscard]] bool node_contains(std::uint32_t node, std::uint64_t id)
      const CDN_EXCLUDES(cluster_mu_);
  /// Runs `fn` over node `node`'s policy instance under that node's lock —
  /// structural audits (audit::Inspector over the node's LRU queue) and
  /// residency enumeration in tests. Throws on an out-of-range node id.
  void with_node_cache(std::uint32_t node,
                       const std::function<void(Cache&)>& fn)
      CDN_EXCLUDES(cluster_mu_);

  static constexpr std::size_t kMaxReplicas = 8;

 private:
  /// One node and its request-path counters. Slots are heap-allocated and
  /// never freed before the cluster, so routing snapshots hold raw
  /// NodeSlot pointers. The counters are relaxed atomics: requests add to
  /// them without a lock, and readers sum them (exact once requests stop).
  struct alignas(64) NodeSlot {
    NodeSlot(std::string name, CachePtr cache)
        : node(std::move(name), std::move(cache)) {}

    tdc::Node node;
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> bytes_total{0};
    std::atomic<std::uint64_t> bytes_hit{0};
    std::atomic<std::uint64_t> peer_fills{0};
    std::atomic<std::uint64_t> peer_fill_bytes{0};
    std::atomic<std::uint64_t> peer_time_us{0};
    std::atomic<std::uint64_t> origin_fetches{0};
    std::atomic<std::uint64_t> origin_bytes{0};
    std::atomic<std::uint64_t> hot_spread_requests{0};
    /// Written by membership changes only, under cluster_mu_.
    std::uint64_t migrated_in_keys = 0;
    std::uint64_t migrated_in_bytes = 0;
  };

  /// Immutable routing snapshot: the ring and, indexed by node id, the
  /// live nodes' slots (nullptr for a retired node). Membership changes
  /// build a new one and publish it; none is modified once published.
  struct Routing {
    HashRing ring;
    std::vector<NodeSlot*> slots;

    [[nodiscard]] std::uint64_t metadata_bytes() const noexcept {
      return ring.metadata_bytes() + slots.capacity() * sizeof(NodeSlot*);
    }
  };

  void validate_config(const ClusterCacheConfig& config) const;
  /// The routing snapshot requests currently use.
  [[nodiscard]] const Routing& routing() const noexcept {
    return *routing_.load(std::memory_order_acquire);
  }
  /// Makes `next` the current snapshot; the previous one stays alive.
  void publish_locked(std::unique_ptr<Routing> next)
      CDN_REQUIRES(cluster_mu_);
  /// Fires every schedule event due at request `seq`.
  void apply_due_events(std::uint64_t seq) CDN_EXCLUDES(cluster_mu_);
  std::uint32_t join_locked() CDN_REQUIRES(cluster_mu_);
  void leave_locked(std::uint32_t node) CDN_REQUIRES(cluster_mu_);
  /// Copies out (id, size) of every resident of `from`, in eviction order
  /// (Cache::for_each_resident; a policy that cannot enumerate hands off
  /// cold).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  residents_of_locked(std::uint32_t from) CDN_REQUIRES(cluster_mu_);
  /// Warm-transfers `objects` to their owners on `to`. With
  /// `restrict_to_new_owner`, only objects whose owner is `only_new_owner`
  /// move (the join pull phase); otherwise every object moves to whoever
  /// owns it on `to` (the leave drain).
  void transfer_locked(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& objects,
      const Routing& to, std::uint32_t only_new_owner,
      bool restrict_to_new_owner) CDN_REQUIRES(cluster_mu_);

  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};

  std::string policy_;
  std::size_t replicas_;
  bool replicate_hot_;
  std::uint64_t initial_share_;  ///< capacity granted to later joiners
  tdc::LatencyModel latency_;
  std::function<CachePtr(std::uint64_t, std::size_t)> factory_;
  std::vector<MembershipEvent> schedule_;
  StripedHotKeyTracker tracker_;
  BackingStorePtr backing_;  ///< fetch() is thread-safe
  /// Request sequence: request `seq` fires the events due at seq and
  /// windows the hot-key tracker on it.
  std::atomic<std::uint64_t> served_{0};
  /// at_request of the next unfired event, or kNoEvent: the request path
  /// takes cluster_mu_ only when its seq reaches this.
  std::atomic<std::uint64_t> next_event_at_{kNoEvent};
  /// Current snapshot, an element of routings_.
  std::atomic<const Routing*> routing_{nullptr};

  mutable Mutex cluster_mu_;
  /// Every node ever created, indexed by node id.
  std::vector<std::unique_ptr<NodeSlot>> slots_ CDN_GUARDED_BY(cluster_mu_);
  /// Every snapshot ever published, the current one last.
  std::vector<std::unique_ptr<const Routing>> routings_
      CDN_GUARDED_BY(cluster_mu_);
  std::size_t next_event_ CDN_GUARDED_BY(cluster_mu_) = 0;
  std::uint64_t migrated_keys_ CDN_GUARDED_BY(cluster_mu_) = 0;
  std::uint64_t migrated_bytes_ CDN_GUARDED_BY(cluster_mu_) = 0;
};

}  // namespace cdn::cluster
