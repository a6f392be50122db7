#include "sim/audit/invariants.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "sim/ghost_list.hpp"
#include "sim/lru_queue.hpp"

namespace cdn::audit {

namespace {

// Collects violations with printf-free stream formatting.
class Collector {
 public:
  explicit Collector(AuditReport& report) : report_(report) {}

  template <typename... Parts>
  void fail(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    report_.violations.push_back(os.str());
  }

 private:
  AuditReport& report_;
};

}  // namespace

std::string AuditReport::to_string() const {
  if (ok()) return "ok";
  std::ostringstream os;
  os << violations.size() << " invariant violation(s):";
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

AuditReport Inspector::check(const LruQueue& q, std::uint64_t capacity_bytes) {
  AuditReport report;
  Collector c(report);
  const auto& slab = q.slab_;
  const std::uint32_t kNull = LruQueue::kNull;

  // Walk head -> tail via next_, verifying prev_ mirrors the path. Bound the
  // walk by the slab size so a corrupted cycle terminates with a violation
  // instead of hanging the audit.
  std::vector<std::uint32_t> order;
  std::unordered_set<std::uint32_t> on_list;
  std::uint32_t prev = kNull;
  std::uint32_t idx = q.head_;
  bool cycle = false;
  while (idx != kNull) {
    if (idx >= slab.size()) {
      c.fail("list link out of slab range: ", idx, " >= ", slab.size());
      return report;  // cannot traverse further safely
    }
    if (!on_list.insert(idx).second) {
      c.fail("cycle in linked list at slab slot ", idx);
      cycle = true;
      break;
    }
    if (slab[idx].prev_ != prev) {
      c.fail("prev link of slot ", idx, " is ", slab[idx].prev_,
             ", expected ", prev);
    }
    order.push_back(idx);
    prev = idx;
    idx = slab[idx].next_;
  }
  if (!cycle) {
    if (q.tail_ != prev) {
      c.fail("tail_ is ", q.tail_, ", expected last walked slot ", prev);
    }
    if (q.head_ != kNull && slab[q.head_].prev_ != kNull) {
      c.fail("head node has non-null prev link");
    }
    if (q.tail_ != kNull && q.tail_ < slab.size() &&
        slab[q.tail_].next_ != kNull) {
      c.fail("tail node has non-null next link");
    }
  }

  // Population counts must agree across every view of residency. Only a
  // queue built with the side array keeps a dense index; any other queue
  // must keep no side state at all.
  if (order.size() != q.index_.size()) {
    c.fail("list holds ", order.size(), " nodes but index_ holds ",
           q.index_.size());
  }
  if (q.has_side_) {
    if (order.size() != q.dense_.size()) {
      c.fail("list holds ", order.size(), " nodes but dense_ holds ",
             q.dense_.size());
    }
    if (q.side_.size() != slab.size()) {
      c.fail("side_ holds ", q.side_.size(), " records but the slab has ",
             slab.size(), " slots");
      return report;  // per-slot side checks would read out of range
    }
  } else if (!q.dense_.empty() || !q.side_.empty()) {
    c.fail("queue without the side array keeps ", q.dense_.size(),
           " dense_ entries and ", q.side_.size(), " side_ records");
  }

  // Per-node: byte accounting, index mapping, dense back-pointers, id
  // uniqueness.
  std::uint64_t sum_bytes = 0;
  std::unordered_set<std::uint64_t> ids;
  for (const std::uint32_t i : order) {
    const auto& n = slab[i];
    sum_bytes += n.size;
    if (!ids.insert(n.id).second) {
      c.fail("duplicate resident id ", n.id);
    }
    const std::uint32_t* mapped = q.index_.find(n.id);
    if (mapped == nullptr) {
      c.fail("resident id ", n.id, " missing from index_");
    } else if (*mapped != i) {
      c.fail("index_[", n.id, "] = ", *mapped, ", expected slot ", i);
    }
    if (!q.has_side_) continue;
    const std::uint32_t pos = q.side_[i].dense_pos_;
    if (pos >= q.dense_.size()) {
      c.fail("slot ", i, " dense_pos_ ", pos, " out of range");
    } else if (q.dense_[pos] != i) {
      c.fail("dense_[", pos, "] = ", q.dense_[pos], ", expected slot ", i,
             " (sampling would return a wrong node)");
    }
  }
  if (sum_bytes != q.used_bytes_) {
    c.fail("used_bytes_ is ", q.used_bytes_, " but resident sizes sum to ",
           sum_bytes);
  }
  if (capacity_bytes != kNoCapacity && q.used_bytes_ > capacity_bytes) {
    c.fail("used_bytes_ ", q.used_bytes_, " exceeds capacity bound ",
           capacity_bytes);
  }

  // Dense entries must be unique, in range, and exactly the listed slots.
  std::unordered_set<std::uint32_t> dense_set;
  for (const std::uint32_t d : q.dense_) {
    if (d >= slab.size()) {
      c.fail("dense_ entry ", d, " out of slab range");
      continue;
    }
    if (!dense_set.insert(d).second) c.fail("duplicate dense_ entry ", d);
    if (!on_list.contains(d)) {
      c.fail("dense_ entry ", d, " is not on the linked list");
    }
  }

  // Slab slots partition into resident ∪ free list.
  std::unordered_set<std::uint32_t> free_set;
  for (const std::uint32_t f : q.free_list_) {
    if (f >= slab.size()) {
      c.fail("free_list_ entry ", f, " out of slab range");
      continue;
    }
    if (!free_set.insert(f).second) c.fail("duplicate free_list_ entry ", f);
    if (on_list.contains(f)) {
      c.fail("slot ", f, " is both free-listed and on the linked list");
    }
  }
  if (order.size() + q.free_list_.size() != slab.size()) {
    c.fail("slab has ", slab.size(), " slots but resident (", order.size(),
           ") + free (", q.free_list_.size(), ") = ",
           order.size() + q.free_list_.size());
  }

  return report;
}

AuditReport Inspector::check(const GhostList& g) {
  AuditReport report;
  Collector c(report);
  const auto& slab = g.slab_;
  const std::uint32_t kNull = GhostList::kNull;

  // Walk front (newest) -> back via next_, verifying prev_ mirrors the
  // path; bound the walk so a corrupted cycle reports instead of hanging.
  std::vector<std::uint32_t> order;
  std::unordered_set<std::uint32_t> on_list;
  std::uint32_t prev = kNull;
  std::uint32_t idx = g.head_;
  bool cycle = false;
  while (idx != kNull) {
    if (idx >= slab.size()) {
      c.fail("FIFO link out of slab range: ", idx, " >= ", slab.size());
      return report;  // cannot traverse further safely
    }
    if (!on_list.insert(idx).second) {
      c.fail("cycle in FIFO list at slab slot ", idx);
      cycle = true;
      break;
    }
    if (slab[idx].prev_ != prev) {
      c.fail("prev link of slot ", idx, " is ", slab[idx].prev_,
             ", expected ", prev);
    }
    order.push_back(idx);
    prev = idx;
    idx = slab[idx].next_;
  }
  if (!cycle && g.tail_ != prev) {
    c.fail("tail_ is ", g.tail_, ", expected last walked slot ", prev);
  }

  // Per-record: byte accounting, index mapping, id uniqueness.
  std::uint64_t sum_bytes = 0;
  std::unordered_set<std::uint64_t> ids;
  for (const std::uint32_t i : order) {
    const auto& r = slab[i];
    sum_bytes += r.size;
    if (!ids.insert(r.id).second) c.fail("duplicate record id ", r.id);
    if (r.size > g.capacity_) {
      c.fail("record ", r.id, " of size ", r.size,
             " individually exceeds capacity ", g.capacity_);
    }
    const std::uint32_t* mapped = g.index_.find(r.id);
    if (mapped == nullptr) {
      c.fail("record ", r.id, " missing from index");
    } else if (*mapped != i) {
      c.fail("index[", r.id, "] = ", *mapped,
             ", does not point at its FIFO record slot ", i);
    }
  }
  if (ids.size() != g.index_.size()) {
    c.fail("FIFO holds ", ids.size(), " records but index holds ",
           g.index_.size());
  }
  if (sum_bytes != g.used_bytes_) {
    c.fail("used_bytes_ is ", g.used_bytes_, " but record sizes sum to ",
           sum_bytes);
  }
  if (g.used_bytes_ > g.capacity_) {
    c.fail("used_bytes_ ", g.used_bytes_, " exceeds capacity ", g.capacity_);
  }

  // Slab slots partition into FIFO records ∪ free list.
  std::unordered_set<std::uint32_t> free_set;
  for (const std::uint32_t f : g.free_list_) {
    if (f >= slab.size()) {
      c.fail("free_list_ entry ", f, " out of slab range");
      continue;
    }
    if (!free_set.insert(f).second) c.fail("duplicate free_list_ entry ", f);
    if (on_list.contains(f)) {
      c.fail("slot ", f, " is both free-listed and on the FIFO list");
    }
  }
  if (order.size() + g.free_list_.size() != slab.size()) {
    c.fail("slab has ", slab.size(), " slots but records (", order.size(),
           ") + free (", g.free_list_.size(), ") = ",
           order.size() + g.free_list_.size());
  }

  return report;
}

std::vector<std::uint64_t> Inspector::ghost_ids(const GhostList& g) {
  std::vector<std::uint64_t> out;
  out.reserve(g.index_.size());
  for (std::uint32_t idx = g.head_; idx != GhostList::kNull;
       idx = g.slab_[idx].next_) {
    out.push_back(g.slab_[idx].id);
  }
  return out;
}

}  // namespace cdn::audit
