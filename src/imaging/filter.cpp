#include "imaging/filter.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

// The packed threshold compares 16 pixels per SSE2 instruction wherever the
// platform has SSE2 (every x86-64 target); other targets take the scalar
// loop, which packs the same bits.
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/geometry.hpp"

namespace hdc::imaging {

namespace {

/// Horizontal box pass with clamp-to-edge; the vertical pass runs the same
/// code on the transposed access pattern.
void box_pass_horizontal(const GrayImage& src, int radius, GrayImage& out) {
  out.reset(src.width(), src.height());
  const int window = 2 * radius + 1;
  for (int y = 0; y < src.height(); ++y) {
    int sum = 0;
    for (int x = -radius; x <= radius; ++x) sum += src.clamped(x, y);
    for (int x = 0; x < src.width(); ++x) {
      out(x, y) = static_cast<std::uint8_t>(sum / window);
      sum += src.clamped(x + radius + 1, y) - src.clamped(x - radius, y);
    }
  }
}

void box_pass_vertical(const GrayImage& src, int radius, GrayImage& out) {
  out.reset(src.width(), src.height());
  const int window = 2 * radius + 1;
  for (int x = 0; x < src.width(); ++x) {
    int sum = 0;
    for (int y = -radius; y <= radius; ++y) sum += src.clamped(x, y);
    for (int y = 0; y < src.height(); ++y) {
      out(x, y) = static_cast<std::uint8_t>(sum / window);
      sum += src.clamped(x, y + radius + 1) - src.clamped(x, y - radius);
    }
  }
}

}  // namespace

void box_blur_into(const GrayImage& src, int radius, GrayImage& out,
                   GrayImage& scratch) {
  if (radius <= 0) {
    out = src;
    return;
  }
  box_pass_horizontal(src, radius, scratch);
  box_pass_vertical(scratch, radius, out);
}

GrayImage box_blur(const GrayImage& src, int radius) {
  if (radius <= 0) return src;
  GrayImage out;
  GrayImage scratch;
  box_blur_into(src, radius, out, scratch);
  return out;
}

void gaussian_blur_into(const GrayImage& src, double sigma, GrayImage& out,
                        GrayImage& scratch) {
  if (sigma <= 0.0) {
    out = src;
    return;
  }
  // Ideal box width for 3 passes: w = sqrt(12 sigma^2 / 3 + 1).
  const double ideal = std::sqrt(4.0 * sigma * sigma + 1.0);
  int radius = static_cast<int>((ideal - 1.0) / 2.0);
  if (radius < 1) radius = 1;
  // Each box pass reads only `scratch` while writing `out`, so chaining
  // out -> out is alias-safe.
  box_pass_horizontal(src, radius, scratch);
  box_pass_vertical(scratch, radius, out);
  box_pass_horizontal(out, radius, scratch);
  box_pass_vertical(scratch, radius, out);
  box_pass_horizontal(out, radius, scratch);
  box_pass_vertical(scratch, radius, out);
}

GrayImage gaussian_blur(const GrayImage& src, double sigma) {
  if (sigma <= 0.0) return src;
  GrayImage out;
  GrayImage scratch;
  gaussian_blur_into(src, sigma, out, scratch);
  return out;
}

void threshold_into(const GrayImage& src, std::uint8_t value, BinaryImage& out) {
  out.reset(src.width(), src.height());
  const std::uint8_t* in = src.data().data();
  std::uint8_t* dst = out.data().data();
  const std::size_t count = src.data().size();
  // Branchless apply: (pixel >= value) is 0/1; negation yields 0x00/0xFF,
  // exactly kBackground/kForeground. A single data-independent row pass
  // like this vectorises to byte-compare + mask (16-32 px per instruction).
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<std::uint8_t>(-static_cast<int>(in[i] >= value));
  }
}

BinaryImage threshold(const GrayImage& src, std::uint8_t value) {
  BinaryImage out;
  threshold_into(src, value, out);
  return out;
}

namespace {

using Histogram = std::array<std::uint64_t, 256>;

/// Pixel count per grey level.
Histogram histogram_of(const GrayImage& src) {
  // The frame goes in 32-pixel blocks. A block whose 32 bytes all equal its
  // first pixel adds 32 to that one bin: four u64 words XORed with the pixel
  // repeated in every byte OR to zero. Any other block is counted pixel by
  // pixel into four interleaved sub-histograms, which breaks the
  // read-modify-write dependency when neighbouring pixels share a bin. The
  // merged histogram is bit-identical to a single-pass count.
  constexpr std::size_t kBlock = 32;
  constexpr std::uint64_t kEveryByte = 0x0101010101010101ULL;
  std::array<std::uint32_t, 256> h0{};
  std::array<std::uint32_t, 256> h1{};
  std::array<std::uint32_t, 256> h2{};
  std::array<std::uint32_t, 256> h3{};
  const std::uint8_t* pixels = src.data().data();
  const std::size_t count = src.data().size();
  std::size_t i = 0;
  for (; i + kBlock <= count; i += kBlock) {
    const std::uint8_t* block = pixels + i;
    std::uint64_t words[kBlock / 8] = {};
    std::memcpy(words, block, kBlock);
    const std::uint64_t first = block[0] * kEveryByte;
    if (((words[0] ^ first) | (words[1] ^ first) | (words[2] ^ first) |
         (words[3] ^ first)) == 0) {
      h0[block[0]] += kBlock;
      continue;
    }
    for (std::size_t j = 0; j < kBlock; j += 4) {
      ++h0[block[j]];
      ++h1[block[j + 1]];
      ++h2[block[j + 2]];
      ++h3[block[j + 3]];
    }
  }
  for (; i < count; ++i) ++h0[pixels[i]];
  Histogram histogram{};
  for (int v = 0; v < 256; ++v) {
    histogram[v] = static_cast<std::uint64_t>(h0[v]) + h1[v] + h2[v] + h3[v];
  }
  return histogram;
}

/// Otsu's level for `histogram`: the smallest value counted as foreground.
std::uint8_t otsu_level(const Histogram& histogram) {
  double total = 0.0;
  double sum_all = 0.0;
  for (int v = 0; v < 256; ++v) {
    total += static_cast<double>(histogram[v]);
    sum_all += static_cast<double>(v) * static_cast<double>(histogram[v]);
  }

  double sum_background = 0.0;
  double weight_background = 0.0;
  double best_variance = -1.0;
  int best_threshold = 128;

  for (int t = 0; t < 256; ++t) {
    weight_background += static_cast<double>(histogram[t]);
    if (weight_background == 0.0) continue;
    const double weight_foreground = total - weight_background;
    if (weight_foreground == 0.0) break;
    sum_background += static_cast<double>(t) * static_cast<double>(histogram[t]);
    const double mean_background = sum_background / weight_background;
    const double mean_foreground = (sum_all - sum_background) / weight_foreground;
    const double diff = mean_background - mean_foreground;
    const double variance = weight_background * weight_foreground * diff * diff;
    if (variance > best_variance) {
      best_variance = variance;
      best_threshold = t + 1;  // foreground is >= threshold
    }
  }
  return static_cast<std::uint8_t>(best_threshold);
}

/// Bits of the 16 pixels at `p` that are >= `value`, pixel i in bit i.
inline std::uint64_t at_least_16(const std::uint8_t* p, std::uint8_t value) {
#if defined(__SSE2__)
  const __m128i pixels = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i floor = _mm_set1_epi8(static_cast<char>(value));
  const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(pixels, floor), pixels);  // max(p, v) == p
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(_mm_movemask_epi8(ge)));
#else
  std::uint64_t bits = 0;
  for (int i = 0; i < 16; ++i) bits |= static_cast<std::uint64_t>(p[i] >= value) << i;
  return bits;
#endif
}

/// Bits of the 16 pixels at `p` that are <= `value`, pixel i in bit i.
inline std::uint64_t at_most_16(const std::uint8_t* p, std::uint8_t value) {
#if defined(__SSE2__)
  const __m128i pixels = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i ceiling = _mm_set1_epi8(static_cast<char>(value));
  const __m128i le = _mm_cmpeq_epi8(_mm_min_epu8(pixels, ceiling), pixels);  // min(p, v) == p
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(_mm_movemask_epi8(le)));
#else
  std::uint64_t bits = 0;
  for (int i = 0; i < 16; ++i) bits |= static_cast<std::uint64_t>(p[i] <= value) << i;
  return bits;
#endif
}

/// Packs `src` into `out`, one bit per pixel: bit = kAbove ? pixel >= value
/// : pixel <= value.
template <bool kAbove>
void pack_threshold(const GrayImage& src, std::uint8_t value, BitImage& out) {
  const int w = src.width();
  out.reset(w, src.height());
  for (int y = 0; y < src.height(); ++y) {
    const std::uint8_t* in = &src(0, y);
    std::uint64_t* dst = out.row(y);
    for (int x = 0; x < w; x += 64) {
      const int count = std::min(64, w - x);
      std::uint64_t word = 0;  // bits past `count` stay zero: the padding
      int b = 0;
      for (; b + 16 <= count; b += 16) {
        word |= (kAbove ? at_least_16(in + x + b, value) : at_most_16(in + x + b, value))
                << b;
      }
      for (; b < count; ++b) {
        const std::uint8_t p = in[x + b];
        word |= static_cast<std::uint64_t>(kAbove ? p >= value : p <= value) << b;
      }
      dst[x >> 6] = word;
    }
  }
}

}  // namespace

void threshold_into(const GrayImage& src, std::uint8_t value, BitImage& out) {
  pack_threshold<true>(src, value, out);
}

void otsu_threshold_into(const GrayImage& src, BinaryImage& out,
                         std::uint8_t* chosen) {
  const std::uint8_t level = otsu_level(histogram_of(src));
  if (chosen != nullptr) *chosen = level;
  threshold_into(src, level, out);
}

void otsu_threshold_into(const GrayImage& src, BitImage& out, std::uint8_t* chosen) {
  const std::uint8_t level = otsu_level(histogram_of(src));
  if (chosen != nullptr) *chosen = level;
  threshold_into(src, level, out);
}

void otsu_threshold_dark_into(const GrayImage& src, BitImage& out, std::uint8_t* chosen) {
  // The inverted frame's histogram is the raw one reversed: the same counts
  // in the same order, so otsu_level returns the same level L. A pixel p is
  // inverted foreground when 255 - p >= L, i.e. p <= 255 - L.
  const Histogram raw = histogram_of(src);
  Histogram reversed;
  for (int v = 0; v < 256; ++v) reversed[v] = raw[255 - v];
  const std::uint8_t level = otsu_level(reversed);
  if (chosen != nullptr) *chosen = level;
  pack_threshold<false>(src, static_cast<std::uint8_t>(255 - level), out);
}

BinaryImage otsu_threshold(const GrayImage& src, std::uint8_t* chosen) {
  BinaryImage out;
  otsu_threshold_into(src, out, chosen);
  return out;
}

void invert_into(const GrayImage& src, GrayImage& out) {
  out.reset(src.width(), src.height());
  // Hoisted pointers: a byte store through out.data()[i] may alias the
  // vector's own data pointer, which keeps the indexed loop scalar.
  const std::uint8_t* in = src.data().data();
  std::uint8_t* dst = out.data().data();
  const std::size_t count = src.data().size();
  for (std::size_t i = 0; i < count; ++i) dst[i] = static_cast<std::uint8_t>(255 - in[i]);
}

GrayImage invert(const GrayImage& src) {
  GrayImage out;
  invert_into(src, out);
  return out;
}

GrayImage add_gaussian_noise(const GrayImage& src, double stddev, hdc::util::Rng& rng) {
  if (stddev <= 0.0) return src;
  GrayImage out(src.width(), src.height());
  for (std::size_t i = 0; i < src.data().size(); ++i) {
    const double noisy = src.data()[i] + rng.gaussian(0.0, stddev);
    out.data()[i] = static_cast<std::uint8_t>(hdc::util::clamp(noisy, 0.0, 255.0));
  }
  return out;
}

GrayImage add_salt_pepper(const GrayImage& src, double fraction, hdc::util::Rng& rng) {
  GrayImage out = src;
  if (fraction <= 0.0) return out;
  for (std::uint8_t& v : out.data()) {
    if (rng.chance(fraction)) v = rng.chance(0.5) ? 255 : 0;
  }
  return out;
}

GrayImage adjust_lighting(const GrayImage& src, double gain, double bias) {
  GrayImage out(src.width(), src.height());
  for (std::size_t i = 0; i < src.data().size(); ++i) {
    const double adjusted = gain * src.data()[i] + bias;
    out.data()[i] = static_cast<std::uint8_t>(hdc::util::clamp(adjusted, 0.0, 255.0));
  }
  return out;
}

}  // namespace hdc::imaging
