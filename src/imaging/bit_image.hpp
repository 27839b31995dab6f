// Packed 1-bit raster: the representation the recognition front end runs on
// from threshold to contour. Morphology becomes word shifts plus row AND/OR,
// and connected components come from per-row runs found with count-trailing-
// zeros, so a 480x360 silhouette costs 2880 words instead of 172800 bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "imaging/image.hpp"

namespace hdc::imaging {

/// Binary raster packed 64 pixels per word: pixel (x, y) is bit x % 64 of
/// word x / 64 of row y, 1 = foreground. Every row spans whole words, and
/// the padding bits past `width` are always zero — the word-parallel
/// kernels rely on that invariant, and every writer in this library keeps it.
class BitImage {
 public:
  BitImage() = default;
  BitImage(int width, int height) { reset(width, height); }

  /// Reshapes to width x height, all background, reusing the existing heap
  /// block whenever its capacity suffices.
  void reset(int width, int height);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int words_per_row() const noexcept { return words_per_row_; }

  [[nodiscard]] std::uint64_t* row(int y) noexcept { return words_.data() + offset(y); }
  [[nodiscard]] const std::uint64_t* row(int y) const noexcept {
    return words_.data() + offset(y);
  }

  /// Pixel read; pixels outside the raster are background.
  [[nodiscard]] bool test(int x, int y) const noexcept {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) return false;
    return ((row(y)[x >> 6] >> (x & 63)) & 1U) != 0;
  }

  /// The valid bits of each row's last word.
  [[nodiscard]] std::uint64_t tail_mask() const noexcept {
    const int used = width_ - (words_per_row_ - 1) * 64;
    return used == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << used) - 1;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }

 private:
  [[nodiscard]] std::size_t offset(int y) const noexcept {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(words_per_row_);
  }

  int width_{0};
  int height_{0};
  int words_per_row_{0};
  std::vector<std::uint64_t> words_;
};

/// Calls f(x, y) for every foreground pixel of `bits`, in raster order: the
/// order a per-pixel scan meets them, so sums over them round the same way.
template <class F>
void for_each_foreground(const BitImage& bits, F&& f) {
  for (int y = 0; y < bits.height(); ++y) {
    const std::uint64_t* row = bits.row(y);
    for (int i = 0; i < bits.words_per_row(); ++i) {
      for (std::uint64_t word = row[i]; word != 0; word &= word - 1) {
        f(i * 64 + std::countr_zero(word), y);
      }
    }
  }
}

/// Packs a BinaryImage: only kForeground pixels become foreground bits.
void pack(const BinaryImage& src, BitImage& out);

/// Expands to a BinaryImage of kBackground / kForeground bytes.
void unpack(const BitImage& src, BinaryImage& out);

}  // namespace hdc::imaging
