#include "imaging/morphology.hpp"

#include <cstdint>

namespace hdc::imaging {

namespace {

/// The 3x3 window's combine: erode keeps a pixel whose window is all
/// foreground, dilate one whose window holds any. Pixels outside the raster
/// are background, i.e. a zero word, for both.
struct Erode {
  static std::uint64_t combine(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return a & b & c;
  }
};
struct Dilate {
  static std::uint64_t combine(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return a | b | c;
  }
};

/// Word `cur` combined with its pixels shifted one to either side; `before`
/// and `after` are the neighbouring words whose edge bits carry in.
template <class Op>
std::uint64_t horizontal3(std::uint64_t before, std::uint64_t cur, std::uint64_t after) {
  return Op::combine(cur, (cur << 1) | (before >> 63), (cur >> 1) | (after << 63));
}

/// Horizontal 3-wide pass of `src` into `out` over the whole word array as
/// one bit string, so a row's first and last words pick up carries from the
/// neighbouring rows. Those 2 words per row are then recomputed with
/// background carries and the tail re-masked, which is exact for every
/// width, 64-multiples included.
template <class Op>
void horizontal_into(const BitImage& src, BitImage& out) {
  out.reset(src.width(), src.height());
  const std::size_t n = static_cast<std::size_t>(src.words_per_row());
  const std::size_t total = src.words().size();
  const std::uint64_t* s = src.row(0);
  std::uint64_t* t = out.row(0);
  for (std::size_t i = 1; i + 1 < total; ++i) {
    t[i] = horizontal3<Op>(s[i - 1], s[i], s[i + 1]);
  }
  const std::uint64_t tail = src.tail_mask();
  for (std::size_t first = 0; first < total; first += n) {
    const std::size_t last = first + n - 1;
    t[first] = horizontal3<Op>(0, s[first], n > 1 ? s[first + 1] : 0);
    t[last] = horizontal3<Op>(n > 1 ? s[last - 1] : 0, s[last], 0) & tail;
  }
}

/// Vertical 3-tall pass of `src` into `out`: each word combined with the
/// words one row above and below, as whole-buffer loops; the first and last
/// rows read background outside the raster.
template <class Op>
void vertical_into(const BitImage& src, BitImage& out) {
  out.reset(src.width(), src.height());
  const std::size_t n = static_cast<std::size_t>(src.words_per_row());
  const std::size_t total = src.words().size();
  const std::size_t last_row = total - n;
  const std::uint64_t* t = src.row(0);
  std::uint64_t* o = out.row(0);
  for (std::size_t i = n; i < last_row; ++i) o[i] = Op::combine(t[i - n], t[i], t[i + n]);
  const bool one_row = total == n;
  for (std::size_t i = 0; i < n; ++i) o[i] = Op::combine(0, t[i], one_row ? 0 : t[i + n]);
  if (one_row) return;
  for (std::size_t i = last_row; i < total; ++i) o[i] = Op::combine(t[i - n], t[i], 0);
}

/// A (2r+1)x(2r+1) erode / dilate as r rounds of the 3x3 one; with pixels
/// outside the raster as background, erode_1 applied r times is exactly
/// erode_r, and likewise for dilate.
template <class Op>
void morph_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch) {
  if (radius <= 0) {
    out = src;
    return;
  }
  horizontal_into<Op>(src, scratch);
  vertical_into<Op>(scratch, out);
  for (int round = 1; round < radius; ++round) {
    horizontal_into<Op>(out, scratch);
    vertical_into<Op>(scratch, out);
  }
}

}  // namespace

void erode_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch) {
  morph_into<Erode>(src, radius, out, scratch);
}

void dilate_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch) {
  morph_into<Dilate>(src, radius, out, scratch);
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

// Perfbench only, goes after ROADMAP item 1: pack, run the packed kernel,
// unpack. The byte scratch arguments are unused.

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

std::size_t foreground_area(const BinaryImage& src) {
  std::size_t count = 0;
  for (std::uint8_t v : src.data()) {
    if (v == kForeground) ++count;
  }
  return count;
}

}  // namespace hdc::imaging
