#include "policies/admission/count_min.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace cdn {

CountMinSketch::CountMinSketch(std::size_t width, std::uint64_t window)
    : mask_(std::bit_ceil(std::max<std::size_t>(width, 16)) - 1),
      window_(window) {
  for (auto& row : rows_) row.assign(mask_ + 1, 0);
}

std::size_t CountMinSketch::index(int row, std::uint64_t key) const {
  // Row-salted mixing; rows are pairwise-independent enough in practice.
  return static_cast<std::size_t>(
             hash64(key ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                       row + 1)))) &
         mask_;
}

std::uint8_t CountMinSketch::add(std::uint64_t key) {
  // Each row's cell is hashed once and reused for the minimum, the
  // conservative update (only cells equal to the minimum are bumped) and
  // the post-update read-back.
  std::array<std::uint8_t*, kRows> cells{};
  std::uint8_t est = kMax;
  for (int r = 0; r < kRows; ++r) {
    cells[r] = &rows_[r][index(r, key)];
    est = std::min(est, *cells[r]);
  }
  if (est < kMax) {
    for (std::uint8_t* c : cells) {
      if (*c == est) ++*c;
    }
  }
  // age() halves in place, so the cell pointers stay valid across it.
  if (++additions_ >= window_) age();
  std::uint8_t m = kMax;
  for (const std::uint8_t* c : cells) m = std::min(m, *c);
  return m;
}

std::uint8_t CountMinSketch::estimate(std::uint64_t key) const {
  std::uint8_t m = kMax;
  for (int r = 0; r < kRows; ++r) {
    m = std::min(m, rows_[r][index(r, key)]);
  }
  return m;
}

void CountMinSketch::age() {
  additions_ = 0;
  for (auto& row : rows_) {
    for (auto& c : row) c = static_cast<std::uint8_t>(c >> 1);
  }
}

}  // namespace cdn
