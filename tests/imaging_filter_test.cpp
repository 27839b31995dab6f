#include "imaging/filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "imaging/bit_image.hpp"
#include "imaging/draw.hpp"
#include "imaging/morphology.hpp"
#include "signs/scene.hpp"

namespace hdc::imaging {
namespace {

double mean_of(const GrayImage& img) {
  double sum = std::accumulate(img.data().begin(), img.data().end(), 0.0);
  return sum / static_cast<double>(img.pixel_count());
}

TEST(BoxBlur, IdentityAtZeroRadiusAndSmoothing) {
  GrayImage img(21, 21, 0);
  img(10, 10) = 255;
  EXPECT_EQ(box_blur(img, 0), img);
  const GrayImage blurred = box_blur(img, 1);
  // The spike spreads over a 3x3 neighbourhood.
  EXPECT_GT(blurred(9, 9), 0);
  EXPECT_GT(blurred(11, 11), 0);
  EXPECT_LT(blurred(10, 10), 255);
  EXPECT_EQ(blurred(0, 0), 0);
}

TEST(BoxBlur, PreservesConstantImage) {
  const GrayImage img(16, 16, 133);
  EXPECT_EQ(box_blur(img, 3), img);
}

TEST(GaussianBlur, ReducesVarianceKeepsMean) {
  GrayImage img(32, 32, 0);
  fill_rect(img, 8, 8, 23, 23, 200);
  const double mean_before = mean_of(img);
  const GrayImage out = gaussian_blur(img, 2.0);
  EXPECT_NEAR(mean_of(out), mean_before, 6.0);
  // Edge gradient softened: mid-edge pixel now between 0 and 200.
  EXPECT_GT(out(7, 15), 0);
  EXPECT_LT(out(7, 15), 200);
  EXPECT_EQ(gaussian_blur(img, 0.0), img);
}

TEST(Threshold, FixedValue) {
  GrayImage img(4, 1);
  img(0, 0) = 10;
  img(1, 0) = 99;
  img(2, 0) = 100;
  img(3, 0) = 255;
  const BinaryImage out = threshold(img, 100);
  EXPECT_EQ(out(0, 0), kBackground);
  EXPECT_EQ(out(1, 0), kBackground);
  EXPECT_EQ(out(2, 0), kForeground);
  EXPECT_EQ(out(3, 0), kForeground);
}

TEST(Threshold, PackedMatchesByteAtEveryLevel) {
  // The packed threshold compares 16 pixels at a time (SSE2 on x86-64, a
  // scalar loop elsewhere) and packs the rest one by one. The widths cover a
  // row shorter than one 16-pixel block, whole blocks, a scalar tail and the
  // 64-bit word boundary; every other pixel is an extreme value. pack() runs
  // the same packed threshold, so the words are also built pixel by pixel.
  constexpr std::array<std::uint8_t, 6> kEdges = {0, 254, 255, 1, 127, 128};
  hdc::util::Rng rng(1603);
  for (const int w : {1, 15, 16, 17, 63, 64, 65, 129}) {
    GrayImage src(w, 6);
    for (std::size_t i = 0; i < src.data().size(); ++i) {
      src.data()[i] = i % 2 == 0 ? kEdges[(i / 2) % kEdges.size()]
                                 : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    for (int value = 0; value <= 255; ++value) {
      const std::string where = "w=" + std::to_string(w) + " value=" + std::to_string(value);
      BinaryImage bytes;
      threshold_into(src, static_cast<std::uint8_t>(value), bytes);
      BitImage want;
      pack(bytes, want);
      std::vector<std::uint64_t> want_words(want.words().size(), 0);
      for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < w; ++x) {
          want_words[static_cast<std::size_t>(y * want.words_per_row() + x / 64)] |=
              static_cast<std::uint64_t>(src(x, y) >= value) << (x % 64);
        }
      }
      BitImage got;
      threshold_into(src, static_cast<std::uint8_t>(value), got);
      ASSERT_EQ(got.width(), w) << where;
      ASSERT_EQ(got.height(), src.height()) << where;
      EXPECT_TRUE(got.words() == want.words()) << where;
      EXPECT_TRUE(got.words() == want_words) << where;
      for (int y = 0; y < got.height(); ++y) {
        EXPECT_EQ(got.row(y)[got.words_per_row() - 1] & ~got.tail_mask(), 0u)
            << where << " padding of row " << y;
      }
    }
  }
}

TEST(Otsu, SeparatesBimodalImage) {
  GrayImage img(40, 40, 30);
  fill_rect(img, 10, 10, 29, 29, 220);
  std::uint8_t chosen = 0;
  const BinaryImage out = otsu_threshold(img, &chosen);
  EXPECT_GT(chosen, 30);
  EXPECT_LE(chosen, 220);
  EXPECT_EQ(out(20, 20), kForeground);
  EXPECT_EQ(out(0, 0), kBackground);
  EXPECT_EQ(foreground_area(out), 400u);
}

TEST(Otsu, NoisyBimodalStillSeparates) {
  hdc::util::Rng rng(5);
  GrayImage img(60, 60, 60);
  fill_rect(img, 20, 20, 39, 39, 190);
  const GrayImage noisy = add_gaussian_noise(img, 15.0, rng);
  const BinaryImage out = otsu_threshold(noisy);
  // The bright square should dominate the foreground.
  std::size_t inside = 0;
  for (int y = 20; y < 40; ++y) {
    for (int x = 20; x < 40; ++x) {
      if (out(x, y) == kForeground) ++inside;
    }
  }
  EXPECT_GT(inside, 390u);
  EXPECT_LT(foreground_area(out) - inside, 30u);
}

TEST(Invert, IsInvolution) {
  GrayImage img(8, 8);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(i * 4);
  }
  EXPECT_EQ(invert(invert(img)), img);
  EXPECT_EQ(invert(img)(0, 0), 255);
}

TEST(GaussianNoise, DeterministicPerSeedAndBounded) {
  const GrayImage img(32, 32, 128);
  hdc::util::Rng rng_a(9), rng_b(9), rng_c(10);
  const GrayImage a = add_gaussian_noise(img, 10.0, rng_a);
  const GrayImage b = add_gaussian_noise(img, 10.0, rng_b);
  const GrayImage c = add_gaussian_noise(img, 10.0, rng_c);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_NEAR(mean_of(a), 128.0, 2.0);
  hdc::util::Rng rng_d(11);
  EXPECT_EQ(add_gaussian_noise(img, 0.0, rng_d), img);
}

TEST(SaltPepper, FlipsRequestedFraction) {
  const GrayImage img(100, 100, 128);
  hdc::util::Rng rng(13);
  const GrayImage out = add_salt_pepper(img, 0.1, rng);
  std::size_t flipped = 0;
  for (std::uint8_t v : out.data()) {
    if (v == 0 || v == 255) ++flipped;
  }
  EXPECT_NEAR(static_cast<double>(flipped) / 10000.0, 0.1, 0.02);
}

TEST(Lighting, GainBiasAndClamping) {
  GrayImage img(2, 1);
  img(0, 0) = 100;
  img(1, 0) = 250;
  const GrayImage out = adjust_lighting(img, 1.5, 10.0);
  EXPECT_EQ(out(0, 0), 160);
  EXPECT_EQ(out(1, 0), 255);  // clamped
  const GrayImage dark = adjust_lighting(img, 0.1, -20.0);
  EXPECT_EQ(dark(0, 0), 0);  // clamped at 0
}


// ---- Dark-foreground Otsu on the raw frame -----------------------------------
// otsu_threshold_dark_into must equal thresholding the inverted frame: the
// same level and the same packed bits, padding included.

/// Checks otsu_threshold_dark_into(frame) against the invert-then-threshold
/// composition it replaces.
void expect_dark_threshold_matches_inverted(const GrayImage& frame, const std::string& where) {
  BitImage want;
  std::uint8_t want_level = 0;
  otsu_threshold_into(invert(frame), want, &want_level);
  BitImage got;
  std::uint8_t got_level = 0;
  otsu_threshold_dark_into(frame, got, &got_level);
  EXPECT_EQ(got_level, want_level) << where;
  ASSERT_EQ(got.width(), want.width()) << where;
  ASSERT_EQ(got.height(), want.height()) << where;
  EXPECT_TRUE(got.words() == want.words()) << where;

  // The byte pipeline agrees on the same pixels.
  std::uint8_t byte_level = 0;
  BinaryImage byte_bits;
  otsu_threshold_into(invert(frame), byte_bits, &byte_level);
  EXPECT_EQ(byte_level, got_level) << where;
  BitImage packed_bytes;
  pack(byte_bits, packed_bytes);
  EXPECT_TRUE(packed_bytes.words() == got.words()) << where;
}

TEST(OtsuDark, MatchesInvertedThresholdAcrossWordBoundaries) {
  hdc::util::Rng rng(2718);
  const std::vector<int> widths = {1,   63,  64,  65,
                                   127, 128, 129, static_cast<int>(rng.uniform_int(2, 200))};
  for (const int w : widths) {
    for (int trial = 0; trial < 4; ++trial) {
      const int h = static_cast<int>(rng.uniform_int(1, 9));
      GrayImage img(w, h);
      // Two noisy populations, so the chosen level moves from trial to trial.
      const double dark = rng.uniform(0.0, 120.0);
      const double bright = rng.uniform(130.0, 255.0);
      for (std::uint8_t& px : img.data()) {
        const double mean = rng.chance(0.3) ? dark : bright;
        px = static_cast<std::uint8_t>(
            std::clamp(mean + rng.gaussian(0.0, 20.0), 0.0, 255.0));
      }
      expect_dark_threshold_matches_inverted(
          img, "w=" + std::to_string(w) + " h=" + std::to_string(h) +
                   " trial=" + std::to_string(trial));
    }
  }
}

TEST(OtsuDark, MatchesInvertedThresholdOnDegenerateHistograms) {
  for (const int w : {1, 64, 65, 130}) {
    // Uniform frames take the default level 128.
    for (const int value : {0, 1, 127, 128, 200, 255}) {
      expect_dark_threshold_matches_inverted(
          GrayImage(w, 3, static_cast<std::uint8_t>(value)),
          "uniform " + std::to_string(value) + " w=" + std::to_string(w));
    }
    // Only the extremes 0 and 255.
    GrayImage extremes(w, 4, 255);
    for (int x = 0; x < w; x += 3) extremes(x, 1) = 0;
    extremes(w - 1, 3) = 0;
    expect_dark_threshold_matches_inverted(extremes, "0/255 w=" + std::to_string(w));
    // Two mid-range levels.
    GrayImage two_level(w, 5, 180);
    fill_rect(two_level, 0, 1, (w - 1) / 2, 3, 40);
    expect_dark_threshold_matches_inverted(two_level, "two-level w=" + std::to_string(w));
  }
}

TEST(OtsuDark, MatchesInvertedThresholdOnNoisyRenderedFrames) {
  const std::vector<signs::ViewGeometry> views = {{5.0, 3.0, 0.0}, {3.5, 2.0, 20.0}};
  std::uint64_t seed = 0x0d4c0000ULL;
  for (const signs::HumanSign sign : {signs::HumanSign::kAttentionGained,
                                      signs::HumanSign::kYes, signs::HumanSign::kNo}) {
    for (const signs::ViewGeometry& view : views) {
      signs::RenderOptions options;
      options.noise_stddev = 25.0;
      options.clutter_count = 8;
      const std::uint64_t frame_seed = seed++;
      hdc::util::Rng rng(frame_seed);
      const GrayImage frame = signs::render_sign(sign, view, options, &rng);
      ASSERT_EQ(frame.width(), 480);
      ASSERT_EQ(frame.height(), 360);
      expect_dark_threshold_matches_inverted(frame, "rendered seed " + std::to_string(frame_seed));
    }
  }
}

// ---- Uniform 32-pixel blocks in the Otsu histogram ---------------------------
// The histogram adds a block of 32 identical pixels to its bin in one step. A
// frame of one grey value takes the default level 128; a single odd pixel moves
// the level, so a block check that ignores any byte changes the result.

/// Otsu's level for `frame` (inverted when `dark`): one counter per grey level
/// and the textbook between-class-variance loop.
std::uint8_t reference_otsu_level(const GrayImage& frame, bool dark) {
  std::array<double, 256> counts{};
  for (const std::uint8_t p : frame.data()) counts[dark ? 255 - p : p] += 1.0;
  double total = 0.0;
  double sum_all = 0.0;
  for (int v = 0; v < 256; ++v) {
    total += counts[v];
    sum_all += v * counts[v];
  }
  double weight_background = 0.0;
  double sum_background = 0.0;
  double best_variance = -1.0;
  int level = 128;
  for (int t = 0; t < 256; ++t) {
    weight_background += counts[t];
    if (weight_background == 0.0) continue;
    const double weight_foreground = total - weight_background;
    if (weight_foreground == 0.0) break;
    sum_background += t * counts[t];
    const double diff =
        sum_background / weight_background - (sum_all - sum_background) / weight_foreground;
    const double variance = weight_background * weight_foreground * diff * diff;
    if (variance > best_variance) {
      best_variance = variance;
      level = t + 1;
    }
  }
  return static_cast<std::uint8_t>(level);
}

/// Checks the byte, packed and dark Otsu thresholds of `frame` against the
/// reference level and the bits it implies.
void expect_otsu_matches_reference(const GrayImage& frame, const std::string& where) {
  const std::uint8_t level = reference_otsu_level(frame, false);
  BinaryImage want(frame.width(), frame.height());
  for (std::size_t i = 0; i < frame.data().size(); ++i) {
    want.data()[i] = frame.data()[i] >= level ? kForeground : kBackground;
  }
  std::uint8_t byte_level = 0;
  BinaryImage byte_bits;
  otsu_threshold_into(frame, byte_bits, &byte_level);
  EXPECT_EQ(byte_level, level) << where;
  EXPECT_EQ(byte_bits, want) << where;

  BitImage want_packed;
  pack(want, want_packed);
  std::uint8_t packed_level = 0;
  BitImage packed;
  otsu_threshold_into(frame, packed, &packed_level);
  EXPECT_EQ(packed_level, level) << where;
  EXPECT_TRUE(packed.words() == want_packed.words()) << where;

  // Dark foreground: Otsu on the inverted frame, pixel p set when p <= 255 - L.
  const std::uint8_t dark_level = reference_otsu_level(frame, true);
  BinaryImage want_dark(frame.width(), frame.height());
  for (std::size_t i = 0; i < frame.data().size(); ++i) {
    want_dark.data()[i] = frame.data()[i] <= 255 - dark_level ? kForeground : kBackground;
  }
  BitImage want_dark_packed;
  pack(want_dark, want_dark_packed);
  std::uint8_t got_dark_level = 0;
  BitImage dark;
  otsu_threshold_dark_into(frame, dark, &got_dark_level);
  EXPECT_EQ(got_dark_level, dark_level) << where;
  EXPECT_TRUE(dark.words() == want_dark_packed.words()) << where;
}

TEST(Otsu, CountsEveryPixelOfUniformBlocks) {
  constexpr int kBlock = 32;
  // Background and odd values: far apart, one bit apart in the low and the
  // high bit of the byte, and the extremes. No pair has 127 as its lower value,
  // which would give level 128, the same as the uniform frame.
  const std::vector<std::pair<int, int>> values = {
      {200, 30}, {30, 200}, {128, 129}, {129, 128}, {77, 77 ^ 0x80}, {0, 255}, {255, 254}};
  for (const int w : {1, 31, 32, 33, 63, 64, 65, 480}) {
    for (const int h : {1, 2, 3, 5}) {
      const int count = w * h;
      const int blocks = count / kBlock;
      // Every offset of the first and the last full block, the first pixel of
      // every block, and every pixel of the scalar tail.
      std::vector<int> positions;
      for (int offset = 0; offset < kBlock && blocks > 0; ++offset) {
        positions.push_back(offset);
        positions.push_back((blocks - 1) * kBlock + offset);
      }
      for (int b = 0; b < blocks; ++b) positions.push_back(b * kBlock);
      for (int i = blocks * kBlock; i < count; ++i) positions.push_back(i);
      std::sort(positions.begin(), positions.end());
      positions.erase(std::unique(positions.begin(), positions.end()), positions.end());

      for (const auto& [background, odd] : values) {
        const std::string frame_name = "w=" + std::to_string(w) + " h=" + std::to_string(h) +
                                       " background=" + std::to_string(background) +
                                       " odd=" + std::to_string(odd);
        GrayImage frame(w, h, static_cast<std::uint8_t>(background));
        expect_otsu_matches_reference(frame, frame_name + " uniform");
        for (const int at : positions) {
          frame.data()[static_cast<std::size_t>(at)] = static_cast<std::uint8_t>(odd);
          if (count > 1) {
            ASSERT_NE(reference_otsu_level(frame, false), 128) << frame_name;
            ASSERT_NE(reference_otsu_level(frame, true), 128) << frame_name;
          }
          expect_otsu_matches_reference(frame, frame_name + " at=" + std::to_string(at));
          frame.data()[static_cast<std::size_t>(at)] = static_cast<std::uint8_t>(background);
        }
      }
    }
  }

  // With two grey levels the level is the lower one + 1 whatever the counts.
  // Three runs of 40, 120 and 220: as the middle run grows into the bright
  // one, the level crosses from 121 to 41 at one split, and a block counted
  // as 31 or 33 pixels moves that split.
  for (const int w : {33, 480}) {
    GrayImage frame(w, 5);
    const int count = w * 5;
    const int dark_end = count / 3;
    for (int middle_end = dark_end; middle_end <= count; ++middle_end) {
      for (int i = 0; i < count; ++i) {
        frame.data()[static_cast<std::size_t>(i)] = i < dark_end ? 40 : i < middle_end ? 120 : 220;
      }
      expect_otsu_matches_reference(frame, "three runs w=" + std::to_string(w) +
                                               " middle_end=" + std::to_string(middle_end));
    }
  }
}

}  // namespace
}  // namespace hdc::imaging
