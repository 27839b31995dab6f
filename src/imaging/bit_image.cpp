#include "imaging/bit_image.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "imaging/filter.hpp"

namespace hdc::imaging {

namespace {

/// kForeground / kBackground bytes for each 8-pixel group, in pixel order.
constexpr std::array<std::array<std::uint8_t, 8>, 256> kExpandedBytes = [] {
  std::array<std::array<std::uint8_t, 8>, 256> table{};
  for (std::size_t bits = 0; bits < 256; ++bits) {
    for (std::size_t i = 0; i < 8; ++i) {
      table[bits][i] = ((bits >> i) & 1U) != 0 ? kForeground : kBackground;
    }
  }
  return table;
}();

}  // namespace

void BitImage::reset(int width, int height) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("BitImage::reset: dimensions must be positive");
  }
  width_ = width;
  height_ = height;
  words_per_row_ = (width + 63) / 64;
  words_.assign(static_cast<std::size_t>(words_per_row_) * static_cast<std::size_t>(height),
                0);
}

void pack(const BinaryImage& src, BitImage& out) {
  // kForeground is the only byte >= kForeground.
  threshold_into(src, kForeground, out);
}

void unpack(const BitImage& src, BinaryImage& out) {
  const int w = src.width();
  out.reset(w, src.height());
  for (int y = 0; y < src.height(); ++y) {
    const std::uint64_t* bits = src.row(y);
    std::uint8_t* dst = &out(0, y);
    for (int x = 0; x < w; x += 64) {
      const int count = std::min(64, w - x);
      const std::uint64_t word = bits[x >> 6];
      int b = 0;
      for (; b + 8 <= count; b += 8) {
        std::memcpy(dst + x + b, kExpandedBytes[(word >> b) & 0xFFU].data(), 8);
      }
      for (; b < count; ++b) {
        dst[x + b] = ((word >> b) & 1U) != 0 ? kForeground : kBackground;
      }
    }
  }
}

}  // namespace hdc::imaging
