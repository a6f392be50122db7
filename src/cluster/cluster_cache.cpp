#include "cluster/cluster_cache.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/registry.hpp"
#include "srv/sharded_cache.hpp"
#include "util/rng.hpp"

namespace cdn::cluster {

// ---------------------------------------------------------------------------
// HotKeyTracker

HotKeyTracker::HotKeyTracker(std::uint32_t threshold, std::uint64_t window)
    : threshold_(threshold), window_(window) {
  if (threshold_ == 0 || window_ == 0) {
    throw std::invalid_argument(
        "HotKeyTracker: threshold and window must be >= 1");
  }
}

std::uint32_t HotKeyTracker::observe_at_hashed(std::uint64_t seq,
                                               std::uint64_t id,
                                               std::uint64_t h) {
  const std::uint64_t window = seq / window_;
  if (window > window_index_) {
    if (window == window_index_ + 1) {
      prev_hot_ = std::move(cur_hot_);
    } else {
      // A whole window passed without a request here: its hot set, which
      // the new window would inherit, was empty.
      prev_hot_.clear();
    }
    cur_hot_ = FlatMap<std::uint64_t, std::uint8_t>{};
    counts_.clear();  // keeps capacity: no rehash churn at window boundaries
    window_index_ = window;
  }
  bool inserted = false;
  std::uint32_t* count = counts_.upsert_hashed(id, h, &inserted);
  if (inserted) *count = 0;
  ++*count;
  if (*count == threshold_) {
    // Hot keys are recorded the moment they cross the threshold, so the
    // window rollover never iterates the count table (FlatMap slot order
    // is an implementation detail no policy decision may read).
    bool hot_inserted = false;
    std::uint8_t* flag = cur_hot_.upsert_hashed(id, h, &hot_inserted);
    *flag = 1;
  }
  return *count;
}

std::uint64_t HotKeyTracker::metadata_bytes() const noexcept {
  using CountMap = FlatMap<std::uint64_t, std::uint32_t>;
  using HotMap = FlatMap<std::uint64_t, std::uint8_t>;
  return counts_.capacity() * CountMap::kSlotBytes +
         (cur_hot_.capacity() + prev_hot_.capacity()) * HotMap::kSlotBytes;
}

// ---------------------------------------------------------------------------
// StripedHotKeyTracker

StripedHotKeyTracker::StripedHotKeyTracker(std::uint32_t threshold,
                                           std::uint64_t window) {
  stripes_.reserve(std::size_t{1} << kStripeBits);
  for (std::size_t i = 0; i < (std::size_t{1} << kStripeBits); ++i) {
    stripes_.push_back(std::make_unique<Stripe>(threshold, window));
  }
}

StripedHotKeyTracker::Sample StripedHotKeyTracker::observe_hashed(
    std::uint64_t seq, std::uint64_t id, std::uint64_t h) {
  // Top bits pick the stripe; FlatMap probes from the low bits, so keys
  // within a stripe still spread over its tables.
  Stripe& stripe =
      *stripes_[static_cast<std::size_t>(h >> (64 - kStripeBits))];
  SpinMutexLock lk(stripe.mu);
  Sample out;
  out.count = stripe.tracker.observe_at_hashed(seq, id, h);
  out.hot = stripe.tracker.hot_hashed(id, h, out.count);
  return out;
}

std::uint64_t StripedHotKeyTracker::metadata_bytes() const {
  std::uint64_t total = stripes_.capacity() * sizeof(std::unique_ptr<Stripe>);
  for (const std::unique_ptr<Stripe>& ptr : stripes_) {
    const Stripe& stripe = *ptr;
    SpinMutexLock lk(stripe.mu);
    total += sizeof(Stripe) + stripe.tracker.metadata_bytes();
  }
  return total;
}

// ---------------------------------------------------------------------------
// ClusterTotals

bool deterministic_equal(const ClusterTotals& a,
                         const ClusterTotals& b) noexcept {
  return a.requests == b.requests && a.hits == b.hits &&
         a.bytes_total == b.bytes_total && a.bytes_hit == b.bytes_hit &&
         a.peer_fills == b.peer_fills &&
         a.peer_fill_bytes == b.peer_fill_bytes &&
         a.origin_fetches == b.origin_fetches &&
         a.origin_bytes == b.origin_bytes &&
         a.origin_time_us == b.origin_time_us &&
         a.peer_time_us == b.peer_time_us &&
         a.migrated_keys == b.migrated_keys &&
         a.migrated_bytes == b.migrated_bytes &&
         a.hot_spread_requests == b.hot_spread_requests;
}

// ---------------------------------------------------------------------------
// ClusterCache

namespace {

std::function<CachePtr(std::uint64_t, std::size_t)> registry_factory(
    const ClusterCacheConfig& config) {
  const std::string policy = config.policy;
  const std::uint64_t seed = config.seed;
  return [policy, seed](std::uint64_t capacity, std::size_t node) {
    return make_cache(policy, capacity, seed + node);
  };
}

}  // namespace

ClusterCache::ClusterCache(const ClusterCacheConfig& config)
    : ClusterCache(config, registry_factory(config)) {}

ClusterCache::ClusterCache(
    const ClusterCacheConfig& config,
    std::function<CachePtr(std::uint64_t, std::size_t)> make_node_cache)
    : Cache(config.capacity_bytes),
      policy_(config.policy),
      replicas_(config.replicas),
      replicate_hot_(config.replicate_hot),
      initial_share_(config.nodes == 0
                         ? 0
                         : srv::ShardedCache::shard_capacity(
                               config.capacity_bytes, config.nodes, 0)),
      latency_(config.latency),
      factory_(std::move(make_node_cache)),
      schedule_(config.schedule),
      tracker_(config.hot_threshold, config.hot_window),
      backing_(make_backing_store(config.backing, config.latency)) {
  validate_config(config);
  MutexLock lk(cluster_mu_);
  auto first = std::make_unique<Routing>();
  first->ring = HashRing(config.vnodes_per_node);
  slots_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    slots_.push_back(std::make_unique<NodeSlot>(
        "node" + std::to_string(i),
        factory_(srv::ShardedCache::shard_capacity(config.capacity_bytes,
                                                   config.nodes, i),
                 i)));
    first->slots.push_back(slots_.back().get());
    first->ring.add_node(static_cast<std::uint32_t>(i));
  }
  publish_locked(std::move(first));
  if (!schedule_.empty()) {
    next_event_at_.store(schedule_.front().at_request,
                         std::memory_order_release);
  }
}

void ClusterCache::validate_config(const ClusterCacheConfig& config) const {
  if (config.nodes == 0) {
    throw std::invalid_argument("ClusterCache: need at least one node");
  }
  if (config.replicas == 0 || config.replicas > kMaxReplicas) {
    throw std::invalid_argument("ClusterCache: replicas must be in [1, 8]");
  }
  if (!factory_) {
    throw std::invalid_argument("ClusterCache: node factory is required");
  }
  for (std::size_t i = 1; i < config.schedule.size(); ++i) {
    if (config.schedule[i].at_request < config.schedule[i - 1].at_request) {
      throw std::invalid_argument(
          "ClusterCache: schedule must be sorted by at_request");
    }
  }
}

std::string ClusterCache::name() const { return "cluster(" + policy_ + ")"; }

bool ClusterCache::access(const Request& req) {
  // The ONLY hash64 of this request's id anywhere on the request path; the
  // value flows through ring lookup, the node access and peer probes.
  return access_hashed(req, hash64(req.id));
}

bool ClusterCache::access_hashed(const Request& req, std::uint64_t h) {
  assert(h == hash64(req.id));
  const std::uint64_t seq = served_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= next_event_at_.load(std::memory_order_acquire)) {
    apply_due_events(seq);
  }
  const Routing& r = routing();
  const StripedHotKeyTracker::Sample sample =
      tracker_.observe_hashed(seq, req.id, h);
  std::uint32_t owners[kMaxReplicas];
  std::size_t k = 1;
  if (sample.hot && replicas_ > 1) {
    k = r.ring.owners_hashed(h, replicas_, owners);
  } else {
    owners[0] = r.ring.owner_hashed(h);
  }
  // Load-forced spreading: successive requests to a hot key rotate over
  // its k owners regardless of the replication knob (a flash crowd is
  // spread for load, not as part of the experiment arm).
  const std::size_t pick =
      k > 1 ? static_cast<std::size_t>(sample.count % k) : 0;
  NodeSlot& target = *r.slots[owners[pick]];

  const bool hit = target.node.access_hashed(req, h);
  bool peer_fill = false;
  if (!hit && k > 1 && replicate_hot_) {
    // Cooperative peer fill: read-only probes (contains_hashed never
    // mutates), so enabling the knob cannot change any hit/miss outcome —
    // only where the miss bytes come from.
    for (std::size_t i = 0; i < k && !peer_fill; ++i) {
      if (i != pick) {
        peer_fill = r.slots[owners[i]]->node.contains_hashed(req.id, h);
      }
    }
  }

  constexpr auto kRelaxed = std::memory_order_relaxed;
  target.requests.fetch_add(1, kRelaxed);
  target.bytes_total.fetch_add(req.size, kRelaxed);
  if (k > 1) target.hot_spread_requests.fetch_add(1, kRelaxed);
  if (hit) {
    target.hits.fetch_add(1, kRelaxed);
    target.bytes_hit.fetch_add(req.size, kRelaxed);
  } else if (peer_fill) {
    target.peer_fills.fetch_add(1, kRelaxed);
    target.peer_fill_bytes.fetch_add(req.size, kRelaxed);
    const double ms = latency_.oc_to_dc_ms +
                      static_cast<double>(req.size) / latency_.dc_bandwidth;
    target.peer_time_us.fetch_add(
        static_cast<std::uint64_t>(std::llround(ms * 1000.0)), kRelaxed);
  } else {
    target.origin_fetches.fetch_add(1, kRelaxed);
    target.origin_bytes.fetch_add(req.size, kRelaxed);
    backing_->fetch(req.id, req.size);
  }
  return hit;
}

bool ClusterCache::contains(std::uint64_t id) const {
  return contains_hashed(id, hash64(id));
}

bool ClusterCache::contains_hashed(std::uint64_t id, std::uint64_t h) const {
  for (const NodeSlot* s : routing().slots) {
    if (s != nullptr && s->node.contains_hashed(id, h)) return true;
  }
  return false;
}

std::uint64_t ClusterCache::used_bytes() const {
  MutexLock lk(cluster_mu_);
  std::uint64_t total = 0;
  for (const NodeSlot* s : routing().slots) {
    if (s != nullptr) total += s->node.snapshot().used_bytes;
  }
  return total;
}

std::uint64_t ClusterCache::metadata_bytes() const {
  MutexLock lk(cluster_mu_);
  // Routing state: every published snapshot (retired ones stay alive),
  // the node slots and the striped tracker.
  std::uint64_t total =
      tracker_.metadata_bytes() +
      schedule_.capacity() * sizeof(MembershipEvent) +
      slots_.capacity() * sizeof(std::unique_ptr<NodeSlot>) +
      slots_.size() * sizeof(NodeSlot) +
      routings_.capacity() * sizeof(std::unique_ptr<const Routing>);
  for (const std::unique_ptr<const Routing>& r : routings_) {
    total += sizeof(Routing) + r->metadata_bytes();
  }
  for (const NodeSlot* s : routing().slots) {
    if (s != nullptr) total += s->node.snapshot().metadata_bytes;
  }
  return total;
}

std::uint32_t ClusterCache::join() {
  MutexLock lk(cluster_mu_);
  return join_locked();
}

void ClusterCache::leave(std::uint32_t node) {
  MutexLock lk(cluster_mu_);
  leave_locked(node);
}

std::size_t ClusterCache::node_count() const {
  MutexLock lk(cluster_mu_);
  return slots_.size();
}

std::size_t ClusterCache::live_node_count() const {
  return routing().ring.node_count();
}

void ClusterCache::publish_locked(std::unique_ptr<Routing> next) {
  routings_.push_back(std::move(next));
  routing_.store(routings_.back().get(), std::memory_order_release);
}

void ClusterCache::apply_due_events(std::uint64_t seq) {
  MutexLock lk(cluster_mu_);
  while (next_event_ < schedule_.size() &&
         schedule_[next_event_].at_request <= seq) {
    const MembershipEvent& ev = schedule_[next_event_++];
    if (ev.kind == MembershipEvent::Kind::kJoin) {
      join_locked();
    } else {
      leave_locked(ev.node);
    }
  }
  next_event_at_.store(next_event_ < schedule_.size()
                           ? schedule_[next_event_].at_request
                           : kNoEvent,
                       std::memory_order_release);
}

std::uint32_t ClusterCache::join_locked() {
  const Routing& cur = routing();
  const auto id = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(std::make_unique<NodeSlot>("node" + std::to_string(id),
                                              factory_(initial_share_, id)));
  auto next = std::make_unique<Routing>(cur);
  next->slots.push_back(slots_.back().get());
  next->ring.add_node(id);
  // Pull phase: only residents whose owner changed to the joiner (the
  // ring-adjacent arcs its points claimed, expected 1/N of the key space)
  // move; everything else keeps its placement. Requests keep routing on
  // the current snapshot until the joiner is warm.
  for (std::uint32_t from = 0; from < id; ++from) {
    if (cur.slots[from] == nullptr) continue;
    transfer_locked(residents_of_locked(from), *next, id,
                    /*restrict_to_new_owner=*/true);
  }
  publish_locked(std::move(next));
  return id;
}

void ClusterCache::leave_locked(std::uint32_t node) {
  const Routing& cur = routing();
  if (node >= cur.slots.size() || cur.slots[node] == nullptr) {
    throw std::invalid_argument("ClusterCache::leave: node is not live");
  }
  if (cur.ring.node_count() <= 1) {
    throw std::invalid_argument(
        "ClusterCache::leave: cannot retire the last live node");
  }
  // Ownership must be recomputed on the post-leave ring, so the drain
  // targets the next snapshot, which no longer has the leaver. The
  // retired slot keeps its Node alive — in-flight requests routed on an
  // older snapshot may still use it — but it is out of routing and live
  // stats once the next snapshot is published.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> residents =
      residents_of_locked(node);
  auto next = std::make_unique<Routing>(cur);
  next->slots[node] = nullptr;
  next->ring.remove_node(node);
  transfer_locked(residents, *next, /*only_new_owner=*/0,
                  /*restrict_to_new_owner=*/false);
  publish_locked(std::move(next));
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
ClusterCache::residents_of_locked(std::uint32_t from) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  // Eviction order (LRU -> MRU for queue policies), so re-inserting in
  // this order reproduces the source's recency order at the destination
  // (the last transfer lands at MRU). A policy that cannot enumerate its
  // residents hands off cold (its objects re-fetch on first access).
  slots_[from]->node.with_cache([&out](Cache& c) {
    c.for_each_resident([&out](std::uint64_t id, std::uint64_t size) {
      out.emplace_back(id, size);
      return true;
    });
  });
  return out;
}

void ClusterCache::transfer_locked(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& objects,
    const Routing& to, std::uint32_t only_new_owner,
    bool restrict_to_new_owner) {
  for (const auto& [id, size] : objects) {
    const std::uint64_t h = hash64(id);
    const std::uint32_t owner = to.ring.owner_hashed(h);
    if (restrict_to_new_owner && owner != only_new_owner) continue;
    // Warm transfer: the object enters the new owner through its policy's
    // normal admission path (so SCIP's advisor, LIP's LRU insertion etc.
    // see it), marked as one access. The source copy is not erased — the
    // Cache API has no erase; a stale copy simply ages out of its queue.
    Request req;
    req.id = id;
    req.size = size;
    NodeSlot& dest = *to.slots[owner];
    dest.node.access_hashed(req, h);
    ++dest.migrated_in_keys;
    dest.migrated_in_bytes += size;
    ++migrated_keys_;
    migrated_bytes_ += size;
  }
}

std::vector<ClusterNodeStats> ClusterCache::node_stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  MutexLock lk(cluster_mu_);
  const Routing& cur = routing();
  std::vector<ClusterNodeStats> out;
  out.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const NodeSlot& s = *slots_[i];
    ClusterNodeStats ns;
    ns.name = s.node.name();
    ns.live = cur.slots[i] != nullptr;
    ns.shard = s.node.snapshot();
    ns.shard.requests = s.requests.load(kRelaxed);
    ns.shard.hits = s.hits.load(kRelaxed);
    ns.shard.bytes_total = s.bytes_total.load(kRelaxed);
    ns.shard.bytes_hit = s.bytes_hit.load(kRelaxed);
    ns.peer_fills = s.peer_fills.load(kRelaxed);
    ns.peer_fill_bytes = s.peer_fill_bytes.load(kRelaxed);
    ns.origin_fetches = s.origin_fetches.load(kRelaxed);
    ns.origin_bytes = s.origin_bytes.load(kRelaxed);
    ns.migrated_in_keys = s.migrated_in_keys;
    ns.migrated_in_bytes = s.migrated_in_bytes;
    out.push_back(std::move(ns));
  }
  return out;
}

ClusterTotals ClusterCache::totals() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  MutexLock lk(cluster_mu_);
  ClusterTotals t;
  for (const std::unique_ptr<NodeSlot>& s : slots_) {
    t.requests += s->requests.load(kRelaxed);
    t.hits += s->hits.load(kRelaxed);
    t.bytes_total += s->bytes_total.load(kRelaxed);
    t.bytes_hit += s->bytes_hit.load(kRelaxed);
    t.peer_fills += s->peer_fills.load(kRelaxed);
    t.peer_fill_bytes += s->peer_fill_bytes.load(kRelaxed);
    t.peer_time_us += s->peer_time_us.load(kRelaxed);
    t.origin_fetches += s->origin_fetches.load(kRelaxed);
    t.origin_bytes += s->origin_bytes.load(kRelaxed);
    t.hot_spread_requests += s->hot_spread_requests.load(kRelaxed);
  }
  t.origin_time_us = backing_->stats().total_us;
  t.migrated_keys = migrated_keys_;
  t.migrated_bytes = migrated_bytes_;
  return t;
}

BackingStoreStats ClusterCache::backing_stats() const {
  return backing_->stats();
}

std::vector<std::uint32_t> ClusterCache::owners_of(std::uint64_t id) const {
  std::uint32_t owners[kMaxReplicas];
  const std::size_t k =
      routing().ring.owners_hashed(hash64(id), replicas_, owners);
  return std::vector<std::uint32_t>(owners, owners + k);
}

bool ClusterCache::node_contains(std::uint32_t node, std::uint64_t id) const {
  const NodeSlot* s = nullptr;
  {
    MutexLock lk(cluster_mu_);
    if (node >= slots_.size()) return false;
    s = slots_[node].get();
  }
  return s->node.contains_hashed(id, hash64(id));
}

void ClusterCache::with_node_cache(std::uint32_t node,
                                   const std::function<void(Cache&)>& fn) {
  NodeSlot* s = nullptr;
  {
    MutexLock lk(cluster_mu_);
    if (node >= slots_.size()) {
      throw std::invalid_argument("ClusterCache: no such node");
    }
    s = slots_[node].get();
  }
  // Outside cluster_mu_: fn may be O(residents) and only needs the node
  // lock (slots stay valid for the cluster's lifetime).
  s->node.with_cache(fn);
}

}  // namespace cdn::cluster
