#include "imaging/morphology.hpp"

#include <algorithm>
#include <cstring>

namespace hdc::imaging {

namespace {

enum class MorphOp { kErode, kDilate };

/// Horizontal min (erode) / max (dilate) over x-radius..x+radius, in place
/// on one packed row: `radius` rounds of combining each pixel with its two
/// neighbours, which equals the (2r+1)-wide window. Shifts carry bits
/// across word boundaries; pixels outside the row read as background, and
/// dilation re-clears the padding after every round so it stays background.
void horizontal_pass(std::uint64_t* row, int n, int radius, bool is_erode,
                     std::uint64_t tail) {
  for (int round = 0; round < radius; ++round) {
    std::uint64_t before = 0;  // word i-1 as it was before this round
    for (int i = 0; i < n; ++i) {
      const std::uint64_t cur = row[i];
      const std::uint64_t after = i + 1 < n ? row[i + 1] : 0;
      const std::uint64_t right = (cur >> 1) | (after << 63);  // pixel x+1
      const std::uint64_t left = (cur << 1) | (before >> 63);  // pixel x-1
      row[i] = is_erode ? cur & right & left : cur | right | left;
      before = cur;
    }
    row[n - 1] &= tail;
  }
}

/// Separable square-element pass: a horizontal min/max, then a vertical one
/// that ANDs (erode) / ORs (dilate) the window's rows; pixels outside the
/// raster count as background for both ops. `scratch` holds the horizontal
/// result.
void morph_into(const BitImage& src, int radius, MorphOp op, BitImage& out,
                BitImage& scratch) {
  if (radius <= 0) {
    out = src;
    return;
  }
  const bool is_erode = op == MorphOp::kErode;
  const int h = src.height();
  const int n = src.words_per_row();
  BitImage& horizontal = scratch;
  horizontal.reset(src.width(), h);
  out.reset(src.width(), h);
  const std::uint64_t tail = src.tail_mask();

  for (int y = 0; y < h; ++y) {
    std::uint64_t* mid = horizontal.row(y);
    std::memcpy(mid, src.row(y), static_cast<std::size_t>(n) * 8);
    horizontal_pass(mid, n, radius, is_erode, tail);
  }

  for (int y = 0; y < h; ++y) {
    std::uint64_t* dst = out.row(y);
    const int window_top = y - radius;
    const int window_bottom = y + radius;
    if (is_erode) {
      if (window_top < 0 || window_bottom >= h) continue;  // stays background
      std::memcpy(dst, horizontal.row(window_top), static_cast<std::size_t>(n) * 8);
      for (int yy = window_top + 1; yy <= window_bottom; ++yy) {
        const std::uint64_t* mid = horizontal.row(yy);
        for (int i = 0; i < n; ++i) dst[i] &= mid[i];
      }
    } else {
      const int first = std::max(window_top, 0);
      const int last = std::min(window_bottom, h - 1);
      std::memcpy(dst, horizontal.row(first), static_cast<std::size_t>(n) * 8);
      for (int yy = first + 1; yy <= last; ++yy) {
        const std::uint64_t* mid = horizontal.row(yy);
        for (int i = 0; i < n; ++i) dst[i] |= mid[i];
      }
    }
  }
}

}  // namespace

void erode_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch) {
  morph_into(src, radius, MorphOp::kErode, out, scratch);
}

void dilate_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch) {
  morph_into(src, radius, MorphOp::kDilate, out, scratch);
}

void open_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch_a,
               BitImage& scratch_b) {
  erode_into(src, radius, scratch_a, scratch_b);
  dilate_into(scratch_a, radius, out, scratch_b);
}

void close_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch_a,
                BitImage& scratch_b) {
  dilate_into(src, radius, scratch_a, scratch_b);
  erode_into(scratch_a, radius, out, scratch_b);
}

// Byte adaptors: pack, run the packed kernel, unpack. The byte scratch
// arguments are unused; they keep the signatures callers already hold.

void erode_into(const BinaryImage& src, int radius, BinaryImage& out,
                BinaryImage& /*scratch*/) {
  BitImage in, result, scratch;
  pack(src, in);
  erode_into(in, radius, result, scratch);
  unpack(result, out);
}

void dilate_into(const BinaryImage& src, int radius, BinaryImage& out,
                 BinaryImage& /*scratch*/) {
  BitImage in, result, scratch;
  pack(src, in);
  dilate_into(in, radius, result, scratch);
  unpack(result, out);
}

void open_into(const BinaryImage& src, int radius, BinaryImage& out,
               BinaryImage& /*scratch_a*/, BinaryImage& /*scratch_b*/) {
  BitImage in, result, scratch_a, scratch_b;
  pack(src, in);
  open_into(in, radius, result, scratch_a, scratch_b);
  unpack(result, out);
}

void close_into(const BinaryImage& src, int radius, BinaryImage& out,
                BinaryImage& /*scratch_a*/, BinaryImage& /*scratch_b*/) {
  BitImage in, result, scratch_a, scratch_b;
  pack(src, in);
  close_into(in, radius, result, scratch_a, scratch_b);
  unpack(result, out);
}

BinaryImage erode(const BinaryImage& src, int radius) {
  BinaryImage out;
  BinaryImage scratch;
  erode_into(src, radius, out, scratch);
  return out;
}

BinaryImage dilate(const BinaryImage& src, int radius) {
  BinaryImage out;
  BinaryImage scratch;
  dilate_into(src, radius, out, scratch);
  return out;
}

BinaryImage open(const BinaryImage& src, int radius) {
  BinaryImage out;
  BinaryImage scratch_a;
  BinaryImage scratch_b;
  open_into(src, radius, out, scratch_a, scratch_b);
  return out;
}

BinaryImage close(const BinaryImage& src, int radius) {
  BinaryImage out;
  BinaryImage scratch_a;
  BinaryImage scratch_b;
  close_into(src, radius, out, scratch_a, scratch_b);
  return out;
}

std::size_t foreground_area(const BinaryImage& src) {
  std::size_t count = 0;
  for (std::uint8_t v : src.data()) {
    if (v == kForeground) ++count;
  }
  return count;
}

}  // namespace hdc::imaging
