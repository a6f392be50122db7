// Structural invariant audits for the queue substrate.
//
// Every queue-based policy in this repo sits on `LruQueue` (slab + intrusive
// doubly-linked list + hash index + dense sampling vector) and `GhostList`
// (FIFO byte-bounded shadow list). Small accounting errors in these
// structures — a stale hash entry, a drifted `used_bytes_`, a dense slot
// pointing at a freed node — do not crash; they silently bias learned-policy
// conclusions (LeCaR/CACHEUS-style learners flip on exactly such errors).
// This header provides whole-structure consistency checks that the
// `AuditedQueue`/`AuditedGhostList`/`AuditedCache` wrappers run after every
// operation, and that tests invoke directly.
//
// The checks are read-only and O(n); they are debugging/testing machinery,
// never part of a simulation hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cdn {

class LruQueue;
class GhostList;

namespace audit {

/// Result of a structural audit: `ok()` or a list of human-readable
/// violation descriptions (all violations found, not just the first).
struct AuditReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// All violations joined into one diagnostic string.
  [[nodiscard]] std::string to_string() const;
};

/// kNoCapacity disables the capacity-bound check (LruQueue itself has no
/// capacity; the bound is the wrapping cache's contract).
inline constexpr std::uint64_t kNoCapacity = ~0ULL;

/// Friend-of-the-audited-classes accessor: the audits need to traverse
/// private slab/list state without widening the public API of the
/// structures they police.
class Inspector {
 public:
  /// Validates every structural invariant of an LruQueue:
  ///  - doubly-linked-list integrity: head reachable to tail via next,
  ///    prev mirrors next, terminal links null, no cycle;
  ///  - list population == hash-index population;
  ///  - `used_bytes()` equals the sum of resident node sizes;
  ///  - hash index maps each resident id to its slab slot, ids unique;
  ///  - with the side array: one side record per slab slot, dense-vector
  ///    population == list population, and the dense vector and
  ///    `dense_pos_` back-pointers agree (sampling safety);
  ///  - without it: no side records and no dense vector at all;
  ///  - slab slots partition exactly into {resident} ∪ {free list}, with
  ///    the free list duplicate-free, in-range, and disjoint from the list;
  ///  - `used_bytes() <= capacity_bytes` when a bound is given.
  static AuditReport check(const LruQueue& q,
                           std::uint64_t capacity_bytes = kNoCapacity);

  /// Validates every structural invariant of a GhostList:
  ///  - intrusive FIFO-link integrity: front reachable to back via next,
  ///    prev mirrors next, no cycle;
  ///  - FIFO list and flat index hold the same records (the index maps
  ///    each id to its slab slot), ids unique;
  ///  - `used_bytes()` equals the sum of recorded sizes;
  ///  - the byte bound holds: `used_bytes() <= capacity()`;
  ///  - no record individually exceeds the capacity (add() rejects those);
  ///  - slab slots partition exactly into {records} ∪ {free list}.
  static AuditReport check(const GhostList& g);

  /// Recorded ids front (newest) to back (oldest) — lets differential tests
  /// compare full FIFO order against a reference model.
  static std::vector<std::uint64_t> ghost_ids(const GhostList& g);
};

}  // namespace audit
}  // namespace cdn
