// Count-Min sketch with conservative update and periodic halving (aging),
// the frequency substrate of TinyLFU admission. 4-bit-equivalent behaviour
// is obtained by clamping counters at 15 and halving all cells once the
// window fills, which keeps the estimate a recent-popularity signal.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace cdn {

class CountMinSketch {
 public:
  /// `width` cells per row (rounded up to a power of two), 4 rows.
  explicit CountMinSketch(std::size_t width = 1 << 16,
                          std::uint64_t window = 1 << 18);

  /// Records one occurrence; halves all counters when the window fills.
  /// Returns the key's estimate AFTER the update (and any halving) — what
  /// estimate(key) would now return — read back from the cells the update
  /// already located, so a caller that needs both pays the row hashes once.
  std::uint8_t add(std::uint64_t key);

  /// Point estimate (min over rows).
  [[nodiscard]] std::uint8_t estimate(std::uint64_t key) const;

  [[nodiscard]] std::uint64_t metadata_bytes() const {
    return rows_[0].size() * kRows;
  }

  static constexpr int kRows = 4;
  static constexpr std::uint8_t kMax = 15;

 private:
  [[nodiscard]] std::size_t index(int row, std::uint64_t key) const;
  void age();

  std::size_t mask_;
  std::uint64_t window_;
  std::uint64_t additions_ = 0;
  std::vector<std::uint8_t> rows_[kRows];
};

}  // namespace cdn
