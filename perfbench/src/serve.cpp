#include "serve.hpp"

#include <atomic>
#include <exception>
#include <thread>

namespace perfbench {

cdn::srv::ShardedCacheConfig shard_config(const Instance& in) {
  cdn::srv::ShardedCacheConfig c;
  c.policy = "SCIP";
  c.capacity_bytes = in.capacity;
  c.shards = kShards;
  c.seed = in.cache_seed;
  return c;
}

cdn::cluster::ClusterCacheConfig cluster_config(const Instance& in) {
  cdn::cluster::ClusterCacheConfig c;
  c.policy = "SCIP";
  c.capacity_bytes = in.capacity;
  c.nodes = kNodes;
  c.replicate_hot = true;
  c.seed = in.cache_seed;
  return c;
}

namespace {

/// Runs `client(w)` on one thread per client stream, released together;
/// returns the wall time from release to the last thread's end. Per-client
/// results are merged by the caller after every thread has joined.
template <typename Client>
double run_clients(std::size_t clients, Client&& client) {
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::exception_ptr> errors(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t w = 0; w < clients; ++w) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        client(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  while (ready.load() != clients) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return wall;
}

struct ClientOut {
  Samples call_ns;
  Samples access_ns;
  std::uint64_t issued = 0;
  std::uint64_t busy_ns = 0;
};

ServeResult merge(std::vector<ClientOut>& outs, double wall) {
  ServeResult r;
  r.wall_s = wall;
  for (ClientOut& o : outs) {
    r.call_ns.append(o.call_ns);
    r.access_ns.append(o.access_ns);
    r.issued += o.issued;
    r.busy_ns += o.busy_ns;
  }
  return r;
}

}  // namespace

void check_sharded(const cdn::srv::ShardedCache& cache,
                   const ServeResult& r, Checks& checks) {
  const std::vector<cdn::srv::ShardStats> snap = cache.snapshot();
  checks.expect(cdn::srv::sum_stats(snap).requests == r.issued,
                "sharded cache counted every request issued");
  bool fits = true;
  for (const cdn::srv::ShardStats& s : snap) {
    fits = fits && s.used_bytes <= s.capacity_bytes;
  }
  checks.expect(fits, "every shard holds used_bytes <= capacity");
}

void check_cluster(const cdn::cluster::ClusterCache& cache,
                   const ServeResult& r, Checks& checks) {
  const cdn::cluster::ClusterTotals t = cache.totals();
  checks.expect(t.requests == r.issued,
                "cluster counted every request issued");
  checks.expect(t.requests == t.hits + t.peer_fills + t.origin_fetches,
                "cluster flow conservation: requests == hits + peer fills "
                "+ origin fetches");
  bool fits = true;
  for (const cdn::cluster::ClusterNodeStats& n : cache.node_stats()) {
    fits = fits && n.shard.used_bytes <= n.shard.capacity_bytes;
  }
  checks.expect(fits, "every cluster node holds used_bytes <= capacity");
}

ServeResult serve_sharded(cdn::srv::ShardedCache& cache, const Instance& in,
                          const ServeOptions& opt) {
  const std::vector<cdn::Request>& stream = in.trace.requests;
  const std::size_t clients = in.part.batch_first.size();
  std::vector<ClientOut> outs(clients);
  const double wall = run_clients(clients, [&](std::size_t w) {
    SpanThread spans(opt.traced ? &(*opt.spans)[w] : nullptr);
    const std::vector<std::uint64_t>& firsts = in.part.batch_first[w];
    ClientOut& out = outs[w];
    out.call_ns.reserve(firsts.size());
    bool hits[kBatch];
    for (std::size_t k = 0; k < firsts.size(); ++k) {
      const std::size_t off = firsts[k];
      const std::size_t n = std::min(kBatch, stream.size() - off);
      const std::size_t sent =
          (opt.drop_one_request && w == 0 && k == 0) ? n - 1 : n;
      const std::uint64_t batch = off / kBatch;
      const std::uint64_t t0 = now_ns();
      {
        ScopedSpan span("srv.access_batch", off,
                        opt.traced && span_sampled(batch));
        cache.access_batch(stream.data() + off, sent, hits, w);
      }
      const std::uint64_t dt = now_ns() - t0;
      out.call_ns.add(static_cast<double>(dt));
      out.busy_ns += dt;
      out.issued += n;
    }
  });
  return merge(outs, wall);
}

ServeResult serve_cluster(cdn::cluster::ClusterCache& cache,
                          const Instance& in, const ServeOptions& opt) {
  const std::vector<cdn::Request>& stream = in.trace.requests;
  const std::size_t clients = in.part.batch_first.size();
  const std::uint64_t join_at = in.part.batches / 3;
  const std::uint64_t leave_at = 2 * in.part.batches / 3;
  std::atomic<std::uint64_t> started{0};
  std::vector<ClientOut> outs(clients);
  double join_ms = 0.0;
  double leave_ms = 0.0;
  const double wall = run_clients(clients, [&](std::size_t w) {
    SpanThread spans(opt.traced ? &(*opt.spans)[w] : nullptr);
    const std::vector<std::uint64_t>& firsts = in.part.batch_first[w];
    ClientOut& out = outs[w];
    out.call_ns.reserve(firsts.size());
    if (opt.traced) out.access_ns.reserve(firsts.size() * kBatch);
    for (std::size_t k = 0; k < firsts.size(); ++k) {
      // Membership changes happen on the client that claims the window at
      // the fixed stream fraction; only that client writes join_ms/leave_ms.
      const std::uint64_t ticket = started.fetch_add(1);
      if (ticket == join_at) {
        const std::uint64_t t = now_ns();
        (void)cache.join();
        join_ms = static_cast<double>(now_ns() - t) * 1e-6;
      } else if (ticket == leave_at) {
        const std::uint64_t t = now_ns();
        cache.leave(0);
        leave_ms = static_cast<double>(now_ns() - t) * 1e-6;
      }
      const std::size_t off = firsts[k];
      const std::size_t n = std::min(kBatch, stream.size() - off);
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t req = off + i;
        if (opt.traced) {
          const std::uint64_t a0 = now_ns();
          {
            ScopedSpan span("cluster.access", req, span_sampled(req));
            cache.access(stream[off + i]);
          }
          out.access_ns.add(static_cast<double>(now_ns() - a0));
        } else {
          cache.access(stream[off + i]);
        }
      }
      const std::uint64_t dt = now_ns() - t0;
      out.call_ns.add(static_cast<double>(dt));
      out.busy_ns += dt;
      out.issued += n;
    }
  });
  ServeResult r = merge(outs, wall);
  r.join_ms = join_ms;
  r.leave_ms = leave_ms;
  return r;
}

}  // namespace perfbench
