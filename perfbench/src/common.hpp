// Shared pieces of the benchmark: clocks, exact order statistics, the
// output-check ledger, the metric record, in-memory spans and the
// forwarding decorators that time (or, for the self-test, corrupt) a
// policy from outside src/.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/introspect.hpp"
#include "obs/json.hpp"
#include "sim/cache.hpp"

namespace perfbench {

using cdn::Cache;
using cdn::CachePtr;
using cdn::Request;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Keeps a computed value alive so a timed loop is not optimized away.
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

/// Host-speed probe: a fixed kernel owned by the benchmark (random reads
/// mixed with arithmetic over a 128 MiB buffer, the memory-bound mix the
/// replays have). On a shared host, neighbours' use of the last-level cache
/// and memory bandwidth slows every pass by up to 1.5x for seconds to
/// minutes at a time, and the kernel slows with it. factor() times one run
/// of the kernel and returns that time over the reference host's time. A
/// pass bracketed by two probes is rescaled to reference host speed by
/// their mean. The kernel runs no code from src/, so a change there moves the
/// rescaled figures as much as the raw ones.
class HostProbe {
 public:
  /// Kernel time on the reference host (4-vCPU Xeon VM, gcc 12 -O3), run
  /// right after a replay pass as in the benchmark's rounds.
  static constexpr double kReferenceSeconds = 0.032;

  HostProbe() : buf_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) {
      buf_[i] = i * 0x9e3779b97f4a7c15ULL;
    }
  }

  [[nodiscard]] double factor() const {
    const std::uint64_t t0 = now_ns();
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kReads; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += buf_[(x >> 20) & (kWords - 1)];
      acc ^= acc << 7;
    }
    keep(acc);
    return static_cast<double>(now_ns() - t0) * 1e-9 / kReferenceSeconds;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 24;  // 128 MiB
  static constexpr std::size_t kReads = 3'000'000;
  std::vector<std::uint64_t> buf_;
};

/// Exact order statistics over raw samples (nearest rank). A percentile is
/// only trusted when at least `kTailSamples` samples lie beyond it;
/// `supported(q)` says whether that holds for this sample count.
class Samples {
 public:
  static constexpr std::size_t kTailSamples = 10;

  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  void reserve(std::size_t n) { v_.reserve(n); }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] bool supported(double q) const {
    return static_cast<double>(v_.size()) * (1.0 - q) >=
           static_cast<double>(kTailSamples);
  }
  /// Nearest-rank percentile; sorts the samples once.
  [[nodiscard]] double percentile(double q) {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const auto rank = static_cast<std::size_t>(
        std::max(0.0, std::ceil(q * static_cast<double>(v_.size())) - 1.0));
    return v_[std::min(rank, v_.size() - 1)];
  }

 private:
  std::vector<double> v_;
  bool sorted_ = false;
};

/// Ledger of output checks. Every check is one attempted operation; a
/// failed check makes the run incorrect and the process exit non-zero.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (std::find(failures_.begin(), failures_.end(), what) ==
          failures_.end()) {
        failures_.push_back(what);
      }
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metric list in emission order, plus free-form report facts
/// (sample counts, workload properties) that are not gated metrics.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> facts;
  /// Per-round measurements behind a metric, for the full report only.
  std::vector<std::pair<std::string, cdn::obs::json::Value>> series;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fact(std::string name, double value) {
    facts.emplace_back(std::move(name), value);
  }
};

// ------------------------------------------------------------------ spans --

/// One timed interval at a layer boundary. `req` is the request (or, for a
/// batch/window span, the first request) the span serves; spans of one
/// request share it. `parent` is 0 for a root span.
struct Span {
  const char* name;
  std::uint64_t req;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t t0;
  std::uint64_t t1;
};

/// Per-thread span context. A thread records only while `sink` is set and
/// the current request is sampled; records stay in memory until the run
/// writes them out.
struct SpanContext {
  std::vector<Span>* sink = nullptr;
  std::uint64_t id_base = 0;  ///< thread tag in the top bits of span ids
  std::uint64_t next_id = 1;
  std::uint64_t req = 0;
  std::uint64_t parent = 0;
  bool sampled = false;
};

inline thread_local SpanContext t_span;

/// Requests whose index is a multiple of 2^kSpanSampleShift are spanned.
inline constexpr int kSpanSampleShift = 8;

inline bool span_sampled(std::uint64_t req) {
  return (req & ((1ULL << kSpanSampleShift) - 1)) == 0;
}

/// RAII span: opens a child of the thread's current span (when recording)
/// and makes itself the parent of spans opened inside it.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t req, bool sampled) {
    if (t_span.sink == nullptr || !sampled) return;
    active_ = true;
    saved_parent_ = t_span.parent;
    saved_req_ = t_span.req;
    saved_sampled_ = t_span.sampled;
    span_ = {name, req, t_span.id_base | t_span.next_id++, t_span.parent,
             now_ns(), 0};
    t_span.parent = span_.id;
    t_span.req = req;
    t_span.sampled = true;
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.t1 = now_ns();
    t_span.sink->push_back(span_);
    t_span.parent = saved_parent_;
    t_span.req = saved_req_;
    t_span.sampled = saved_sampled_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  bool saved_sampled_ = false;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_req_ = 0;
  Span span_{};
};

inline std::atomic<std::uint64_t> g_span_threads{0};

/// Installs `sink` as the calling thread's span buffer for its lifetime.
/// Each installation draws a fresh tag, so span ids never repeat in a run.
class SpanThread {
 public:
  explicit SpanThread(std::vector<Span>* sink) {
    t_span = SpanContext{};
    t_span.sink = sink;
    t_span.id_base = (g_span_threads.fetch_add(1) + 1) << 40;
  }
  ~SpanThread() { t_span = SpanContext{}; }
  SpanThread(const SpanThread&) = delete;
  SpanThread& operator=(const SpanThread&) = delete;
};

// ------------------------------------------------------------- decorators --

/// Forwarding Cache decorator that times every access/contains call into
/// the wrapped policy and opens a span for sampled requests. It changes no
/// decision: every call forwards unchanged, including the hashed variants,
/// prefetch hints, resident enumeration (so warm hand-offs stay warm) and
/// metric sampling.
///
/// Thread safety: the sharded cache and the cluster nodes call a policy
/// only under that shard's or node's lock, so the counters need none.
///
/// `replay` marks a decorator driven directly by simulate(): there is no
/// enclosing benchmark span, so the decorator opens root spans itself and
/// uses its call index as the request id, and it keeps every per-call
/// duration split by outcome. Behind a front end it only opens child spans
/// of the front end's sampled request spans.
class TimedCache final : public Cache, public cdn::obs::Introspectable {
 public:
  TimedCache(CachePtr inner, bool replay)
      : Cache(inner->capacity()),
        inner_(std::move(inner)),
        intro_(dynamic_cast<cdn::obs::Introspectable*>(inner_.get())),
        replay_(replay) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  bool access(const Request& req) override {
    return timed([&] { return inner_->access(req); });
  }
  bool access_hashed(const Request& req, std::uint64_t h) override {
    return timed([&] { return inner_->access_hashed(req, h); });
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return probe([&] { return inner_->contains(id); });
  }
  [[nodiscard]] bool contains_hashed(std::uint64_t id,
                                     std::uint64_t h) const override {
    return probe([&] { return inner_->contains_hashed(id, h); });
  }
  void prefetch(std::uint64_t id) const noexcept override {
    inner_->prefetch(id);
  }
  bool for_each_resident(
      const std::function<bool(std::uint64_t, std::uint64_t)>& fn)
      const override {
    return inner_->for_each_resident(fn);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return inner_->metadata_bytes();
  }
  void sample_metrics(cdn::obs::MetricRegistry& reg) override {
    if (intro_ != nullptr) intro_->sample_metrics(reg);
  }

  [[nodiscard]] Cache& inner() { return *inner_; }
  [[nodiscard]] std::uint64_t access_ns() const { return access_ns_; }
  [[nodiscard]] std::uint64_t access_calls() const { return access_calls_; }
  [[nodiscard]] std::uint64_t probe_ns() const { return probe_ns_; }
  [[nodiscard]] std::uint64_t probe_calls() const { return probe_calls_; }
  [[nodiscard]] Samples& hit_samples() { return hit_ns_; }
  [[nodiscard]] Samples& miss_samples() { return miss_ns_; }

 private:
  template <typename F>
  bool timed(F&& call) {
    const std::uint64_t req = replay_ ? access_calls_ : t_span.req;
    ScopedSpan span("policy.access", req,
                    replay_ ? span_sampled(req) : t_span.sampled);
    const std::uint64_t t0 = now_ns();
    const bool hit = call();
    const std::uint64_t dt = now_ns() - t0;
    access_ns_ += dt;
    ++access_calls_;
    if (replay_) (hit ? hit_ns_ : miss_ns_).add(static_cast<double>(dt));
    return hit;
  }
  template <typename F>
  bool probe(F&& call) const {
    ScopedSpan span("policy.contains", t_span.req, t_span.sampled);
    const std::uint64_t t0 = now_ns();
    const bool found = call();
    probe_ns_ += now_ns() - t0;
    ++probe_calls_;
    return found;
  }

  CachePtr inner_;
  cdn::obs::Introspectable* intro_;
  bool replay_;
  std::uint64_t access_ns_ = 0;
  std::uint64_t access_calls_ = 0;
  mutable std::uint64_t probe_ns_ = 0;
  mutable std::uint64_t probe_calls_ = 0;
  Samples hit_ns_;
  Samples miss_ns_;
};

/// Self-test fault: forwards to the wrapped policy but reports the
/// `flip_at`-th access (0-based) with the opposite outcome. The policy's
/// own state is untouched; only the reported hit flips.
class FlipOneHit final : public Cache {
 public:
  FlipOneHit(CachePtr inner, std::uint64_t flip_at)
      : Cache(inner->capacity()), inner_(std::move(inner)), flip_at_(flip_at) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  bool access(const Request& req) override {
    const bool hit = inner_->access(req);
    return calls_++ == flip_at_ ? !hit : hit;
  }
  [[nodiscard]] bool contains(std::uint64_t id) const override {
    return inner_->contains(id);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }
  [[nodiscard]] std::uint64_t metadata_bytes() const override {
    return inner_->metadata_bytes();
  }

 private:
  CachePtr inner_;
  std::uint64_t flip_at_;
  std::uint64_t calls_ = 0;
};

}  // namespace perfbench
