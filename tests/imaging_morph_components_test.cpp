#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "imaging/bit_image.hpp"
#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "signs/scene.hpp"
#include "util/rng.hpp"

namespace hdc::imaging {
namespace {

// The entry points run on packed rasters; these helpers pack a byte raster
// drawn with the draw.hpp primitives, run one entry point and unpack the
// result, so the checks below can read pixels and compare whole rasters.

enum class Morph { kErode, kDilate, kOpen, kClose };

BinaryImage morph(Morph op, const BinaryImage& img, int radius) {
  BitImage in, out, scratch_a, scratch_b;
  pack(img, in);
  switch (op) {
    case Morph::kErode: erode_into(in, radius, out, scratch_a); break;
    case Morph::kDilate: dilate_into(in, radius, out, scratch_a); break;
    case Morph::kOpen: open_into(in, radius, out, scratch_a, scratch_b); break;
    case Morph::kClose: close_into(in, radius, out, scratch_a, scratch_b); break;
  }
  BinaryImage result;
  unpack(out, result);
  return result;
}

BinaryImage erode(const BinaryImage& img, int radius) {
  return morph(Morph::kErode, img, radius);
}
BinaryImage dilate(const BinaryImage& img, int radius) {
  return morph(Morph::kDilate, img, radius);
}
BinaryImage open(const BinaryImage& img, int radius) {
  return morph(Morph::kOpen, img, radius);
}
BinaryImage close(const BinaryImage& img, int radius) {
  return morph(Morph::kClose, img, radius);
}

/// Components of `img`; `scratch` keeps the runs and their component index.
std::vector<Component> label(const BinaryImage& img, LabelScratch& scratch) {
  BitImage bits;
  pack(img, bits);
  std::vector<Component> components;
  label_components_into(bits, components, scratch);
  return components;
}

std::vector<Component> label(const BinaryImage& img) {
  LabelScratch scratch;
  return label(img, scratch);
}

BinaryImage largest_component(const BinaryImage& img, std::size_t min_area) {
  BitImage bits, mask;
  pack(img, bits);
  std::vector<Component> components;
  LabelScratch scratch;
  largest_component_mask_into(bits, min_area, mask, components, scratch);
  BinaryImage result;
  unpack(mask, result);
  return result;
}

TEST(Morphology, ErodeShrinksDilateGrows) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 5, 5, 14, 14, kForeground);  // 10x10 block
  EXPECT_EQ(foreground_area(erode(img, 1)), 64u);   // 8x8
  EXPECT_EQ(foreground_area(dilate(img, 1)), 144u); // 12x12
  EXPECT_EQ(erode(img, 0), img);
}

TEST(Morphology, OpenRemovesSpecksKeepsBlocks) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 5, 5, 14, 14, kForeground);
  img(1, 1) = kForeground;  // single-pixel speck
  const BinaryImage opened = open(img, 1);
  EXPECT_EQ(opened(1, 1), kBackground);
  EXPECT_EQ(opened(10, 10), kForeground);
  EXPECT_EQ(foreground_area(opened), 100u);  // block fully restored
}

TEST(Morphology, CloseFillsHoles) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 5, 5, 14, 14, kForeground);
  img(10, 10) = kBackground;  // pinhole
  const BinaryImage closed = close(img, 1);
  EXPECT_EQ(closed(10, 10), kForeground);
  EXPECT_EQ(foreground_area(closed), 100u);
}

TEST(Morphology, CloseBridgesSmallGap) {
  BinaryImage img(30, 10, kBackground);
  fill_rect(img, 2, 4, 13, 6, kForeground);
  fill_rect(img, 15, 4, 27, 6, kForeground);  // 1-px gap at x=14
  const BinaryImage closed = close(img, 1);
  EXPECT_EQ(closed(14, 5), kForeground);
}

TEST(Morphology, ErodeDilateDuality) {
  // Erosion of the foreground == dilation of the background (complement).
  BinaryImage img(16, 16, kBackground);
  fill_rect(img, 4, 4, 11, 11, kForeground);
  img(6, 6) = kBackground;
  const BinaryImage a = erode(img, 1);
  BinaryImage complement(16, 16);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    complement.data()[i] = img.data()[i] == kForeground ? kBackground : kForeground;
  }
  const BinaryImage b = dilate(complement, 1);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const bool fg_a = a.data()[i] == kForeground;
    const bool bg_b = b.data()[i] == kBackground;
    EXPECT_EQ(fg_a, bg_b) << "pixel " << i;
  }
}

TEST(Morphology, OpeningAndClosingAreIdempotent) {
  // Classic lattice property: applying opening (or closing) twice equals
  // applying it once. Checked on an irregular composite shape.
  BinaryImage img(40, 40, kBackground);
  fill_rect(img, 5, 5, 20, 12, kForeground);
  fill_rect(img, 15, 10, 35, 30, kForeground);
  img(3, 3) = kForeground;   // speck
  img(25, 20) = kBackground; // pinhole
  const BinaryImage opened = open(img, 1);
  EXPECT_EQ(open(opened, 1), opened);
  const BinaryImage closed = close(img, 1);
  EXPECT_EQ(close(closed, 1), closed);
}

TEST(Morphology, ExtensivityAndAntiExtensivity) {
  // Opening only removes pixels; closing only adds them.
  BinaryImage img(30, 30, kBackground);
  fill_rect(img, 8, 8, 21, 21, kForeground);
  img(10, 10) = kBackground;
  img(2, 2) = kForeground;
  const BinaryImage opened = open(img, 1);
  const BinaryImage closed = close(img, 1);
  for (int y = 0; y < 30; ++y) {
    for (int x = 0; x < 30; ++x) {
      if (opened(x, y) == kForeground) {
        EXPECT_EQ(img(x, y), kForeground);
      }
      if (img(x, y) == kForeground) {
        EXPECT_EQ(closed(x, y), kForeground);
      }
    }
  }
}

TEST(Components, LabelsDisjointRegions) {
  BinaryImage img(30, 20, kBackground);
  fill_rect(img, 2, 2, 6, 6, kForeground);    // 25 px
  fill_rect(img, 12, 2, 13, 3, kForeground);  // 4 px
  fill_rect(img, 20, 10, 27, 17, kForeground);  // 64 px
  const std::vector<Component> components = label(img);
  ASSERT_EQ(components.size(), 3u);
  std::vector<std::size_t> areas;
  for (const Component& c : components) areas.push_back(c.area);
  std::sort(areas.begin(), areas.end());
  EXPECT_EQ(areas, (std::vector<std::size_t>{4u, 25u, 64u}));
}

TEST(Components, EightConnectivityJoinsDiagonals) {
  BinaryImage img(4, 4, kBackground);
  img(0, 0) = kForeground;
  img(1, 1) = kForeground;  // diagonal neighbour
  img(2, 2) = kForeground;
  const std::vector<Component> components = label(img);
  EXPECT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].area, 3u);
}

TEST(Components, StatisticsAreCorrect) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 4, 6, 9, 11, kForeground);  // 6x6 at (4..9, 6..11)
  const std::vector<Component> components = label(img);
  ASSERT_EQ(components.size(), 1u);
  const Component& c = components[0];
  EXPECT_EQ(c.min_x, 4);
  EXPECT_EQ(c.max_x, 9);
  EXPECT_EQ(c.min_y, 6);
  EXPECT_EQ(c.max_y, 11);
  EXPECT_NEAR(c.centroid.x, 6.5, 1e-9);
  EXPECT_NEAR(c.centroid.y, 8.5, 1e-9);
}

TEST(Components, UShapeMergesAcrossScanOrder) {
  // A U-shape forces provisional labels to merge in pass 1.
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 2, 2, 4, 15, kForeground);   // left arm
  fill_rect(img, 12, 2, 14, 15, kForeground); // right arm
  fill_rect(img, 2, 13, 14, 15, kForeground); // bridge at the bottom
  EXPECT_EQ(label(img).size(), 1u);
}

TEST(LargestComponent, PicksBiggestAboveMinArea) {
  BinaryImage img(30, 20, kBackground);
  fill_rect(img, 2, 2, 6, 6, kForeground);
  fill_rect(img, 20, 10, 27, 17, kForeground);  // larger
  const BinaryImage mask = largest_component(img, 1);
  EXPECT_EQ(mask(22, 12), kForeground);
  EXPECT_EQ(mask(3, 3), kBackground);
  EXPECT_EQ(foreground_area(mask), 64u);
  // min_area above everything yields empty mask.
  EXPECT_EQ(foreground_area(largest_component(img, 100)), 0u);
  // Empty input yields empty mask.
  const BinaryImage empty(5, 5, kBackground);
  EXPECT_EQ(foreground_area(largest_component(empty, 1)), 0u);
}

/// A label raster (0 = background, 1..n components) and per-component
/// statistics, indexed by label - 1.
struct ReferenceLabeling {
  Image<std::int32_t> labels;
  std::vector<Component> components;
};

// Straightforward per-pixel reimplementation of the original two-pass
// labelling (bounds-checked neighbour loop, union-find over pixels). The
// production version labels runs of the packed raster; this reference pins
// bit-identity — run membership, component order AND statistics — across
// random rasters.
ReferenceLabeling reference_label(const BinaryImage& binary) {
  struct RefSet {
    std::vector<std::int32_t> parent;
    std::int32_t make_set() {
      parent.push_back(static_cast<std::int32_t>(parent.size()));
      return parent.back();
    }
    std::int32_t find(std::int32_t x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
      }
      return x;
    }
    void unite(std::int32_t a, std::int32_t b) {
      a = find(a);
      b = find(b);
      if (a != b) {
        parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      }
    }
  };
  ReferenceLabeling out;
  out.labels.reset(binary.width(), binary.height(), 0);
  RefSet sets;
  sets.make_set();
  for (int y = 0; y < binary.height(); ++y) {
    for (int x = 0; x < binary.width(); ++x) {
      if (binary(x, y) != kForeground) continue;
      std::int32_t neighbour = 0;
      constexpr int offsets[4][2] = {{-1, 0}, {-1, -1}, {0, -1}, {1, -1}};
      for (const auto& off : offsets) {
        const int nx = x + off[0];
        const int ny = y + off[1];
        if (!binary.in_bounds(nx, ny)) continue;
        const std::int32_t nl = out.labels(nx, ny);
        if (nl == 0) continue;
        if (neighbour == 0) {
          neighbour = nl;
        } else {
          sets.unite(neighbour, nl);
        }
      }
      out.labels(x, y) = neighbour != 0 ? neighbour : sets.make_set();
    }
  }
  std::vector<std::int32_t> remap;
  for (int y = 0; y < binary.height(); ++y) {
    for (int x = 0; x < binary.width(); ++x) {
      const std::int32_t l = out.labels(x, y);
      if (l == 0) continue;
      const std::int32_t root = sets.find(l);
      if (static_cast<std::size_t>(root) >= remap.size()) {
        remap.resize(static_cast<std::size_t>(root) + 1, 0);
      }
      if (remap[static_cast<std::size_t>(root)] == 0) {
        remap[static_cast<std::size_t>(root)] =
            static_cast<std::int32_t>(out.components.size()) + 1;
        out.components.push_back(
            Component{static_cast<std::int32_t>(out.components.size()) + 1, 0, x,
                      y, x, y, {}});
      }
      const std::int32_t compact = remap[static_cast<std::size_t>(root)];
      out.labels(x, y) = compact;
      Component& comp = out.components[static_cast<std::size_t>(compact - 1)];
      ++comp.area;
      comp.min_x = std::min(comp.min_x, x);
      comp.min_y = std::min(comp.min_y, y);
      comp.max_x = std::max(comp.max_x, x);
      comp.max_y = std::max(comp.max_y, y);
      comp.centroid.x += x;
      comp.centroid.y += y;
    }
  }
  for (Component& comp : out.components) {
    if (comp.area > 0) {
      comp.centroid.x /= static_cast<double>(comp.area);
      comp.centroid.y /= static_cast<double>(comp.area);
    }
  }
  return out;
}

/// Every run the labelling recorded in `scratch` lies in one reference
/// component, the one numbered run_label + 1, and the runs together cover
/// every foreground pixel.
::testing::AssertionResult runs_match_reference(const LabelScratch& scratch,
                                                const ReferenceLabeling& want) {
  std::size_t covered = 0;
  for (std::size_t i = 0; i < scratch.runs.size(); ++i) {
    const Run& run = scratch.runs[i];
    const std::int32_t label = scratch.run_label[i] + 1;
    for (int x = run.x0; x < run.x1; ++x) {
      if (want.labels(x, run.y) != label) {
        return ::testing::AssertionFailure()
               << "run " << i << " (y=" << run.y << ", x " << run.x0 << ".." << run.x1
               << ") has label " << label << ", reference has " << want.labels(x, run.y)
               << " at x=" << x;
      }
    }
    covered += static_cast<std::size_t>(run.x1 - run.x0);
  }
  std::size_t foreground = 0;
  for (const Component& comp : want.components) foreground += comp.area;
  if (covered != foreground) {
    return ::testing::AssertionFailure()
           << "runs cover " << covered << " pixels, reference has " << foreground;
  }
  return ::testing::AssertionSuccess();
}

TEST(Components, VectorisedPassesBitIdenticalToReferenceOnRandomRasters) {
  hdc::util::Rng rng(1234);
  for (int trial = 0; trial < 120; ++trial) {
    const int w = 1 + static_cast<int>(rng.uniform() * 70);
    const int h = 1 + static_cast<int>(rng.uniform() * 50);
    const double density = rng.uniform();  // sparse through dense
    BinaryImage img(w, h, kBackground);
    for (std::uint8_t& px : img.data()) {
      px = rng.uniform() < density ? kForeground : kBackground;
    }

    LabelScratch scratch;
    const std::vector<Component> got = label(img, scratch);
    const ReferenceLabeling want = reference_label(img);
    ASSERT_TRUE(runs_match_reference(scratch, want)) << "trial " << trial;
    ASSERT_EQ(got.size(), want.components.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Component& g = got[i];
      const Component& r = want.components[i];
      EXPECT_EQ(g.label, r.label);
      EXPECT_EQ(g.area, r.area);
      EXPECT_EQ(g.min_x, r.min_x);
      EXPECT_EQ(g.min_y, r.min_y);
      EXPECT_EQ(g.max_x, r.max_x);
      EXPECT_EQ(g.max_y, r.max_y);
      EXPECT_EQ(g.centroid.x, r.centroid.x);  // same summation order: exact
      EXPECT_EQ(g.centroid.y, r.centroid.y);
    }

    // The run-painted mask agrees with a per-pixel reference over the same
    // labelling.
    const BinaryImage mask = largest_component(img, 3);
    const Component* largest = nullptr;
    for (const Component& comp : want.components) {
      if (comp.area >= 3 && (largest == nullptr || comp.area > largest->area)) {
        largest = &comp;
      }
    }
    BinaryImage want_mask(w, h, kBackground);
    if (largest != nullptr) {
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          if (want.labels(x, y) == largest->label) want_mask(x, y) = kForeground;
        }
      }
    }
    ASSERT_TRUE(mask == want_mask) << "trial " << trial;
  }
}


// ---- Word-boundary differential tests --------------------------------------
// The packed kernels carry bits across 64-bit words, so rasters whose widths
// sit on either side of a word boundary are where they can go wrong.

/// Widths on and around word boundaries, plus one random width.
std::vector<int> boundary_widths(hdc::util::Rng& rng) {
  return {1, 63, 64, 65, 127, 128, 129, static_cast<int>(rng.uniform_int(2, 200))};
}

/// A random {kBackground, kForeground} raster of the given foreground density.
BinaryImage random_raster(hdc::util::Rng& rng, int w, int h, double density) {
  BinaryImage img(w, h, kBackground);
  for (std::uint8_t& px : img.data()) {
    px = rng.uniform() < density ? kForeground : kBackground;
  }
  return img;
}

/// True when every padding bit past the width is zero.
bool padding_is_zero(const BitImage& bits) {
  for (int y = 0; y < bits.height(); ++y) {
    if ((bits.row(y)[bits.words_per_row() - 1] & ~bits.tail_mask()) != 0) return false;
  }
  return true;
}

/// Per-pixel square-window min (erode) / max (dilate); pixels outside the
/// raster count as background.
BinaryImage reference_morph(const BinaryImage& src, int radius, bool erode) {
  BinaryImage out(src.width(), src.height(), kBackground);
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      bool all = true;
      bool any = false;
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          const bool fg =
              src.in_bounds(x + dx, y + dy) && src(x + dx, y + dy) == kForeground;
          all = all && fg;
          any = any || fg;
        }
      }
      if (erode ? all : any) out(x, y) = kForeground;
    }
  }
  return out;
}

TEST(BitImage, PackUnpackRoundTripKeepsPaddingZero) {
  hdc::util::Rng rng(77);
  for (const int w : boundary_widths(rng)) {
    for (const double density : {0.0, 0.05, 0.5, 0.95, 1.0}) {
      const int h = static_cast<int>(rng.uniform_int(1, 9));
      const BinaryImage img = random_raster(rng, w, h, density);
      BitImage bits;
      pack(img, bits);
      ASSERT_EQ(bits.width(), w);
      ASSERT_EQ(bits.words_per_row(), (w + 63) / 64);
      ASSERT_TRUE(padding_is_zero(bits)) << "w=" << w;
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          ASSERT_EQ(bits.test(x, y), img(x, y) == kForeground) << x << "," << y;
        }
      }
      EXPECT_FALSE(bits.test(-1, 0));
      EXPECT_FALSE(bits.test(w, 0));
      BinaryImage back;
      unpack(bits, back);
      ASSERT_TRUE(back == img) << "w=" << w << " density=" << density;
    }
  }
}

TEST(BitImage, PackTreatsOnlyForegroundBytesAsSet) {
  BinaryImage img(70, 1, kBackground);
  img(0, 0) = kForeground;
  img(1, 0) = 254;
  img(64, 0) = 1;
  img(69, 0) = kForeground;
  BitImage bits;
  pack(img, bits);
  EXPECT_TRUE(bits.test(0, 0));
  EXPECT_FALSE(bits.test(1, 0));
  EXPECT_FALSE(bits.test(64, 0));
  EXPECT_TRUE(bits.test(69, 0));
}

TEST(Morphology, PackedKernelsMatchPerPixelWindowAcrossWordBoundaries) {
  hdc::util::Rng rng(4242);
  for (const int w : boundary_widths(rng)) {
    for (const double density : {0.02, 0.3, 0.7, 0.98}) {
      for (int radius = 0; radius <= 3; ++radius) {
        const int h = static_cast<int>(rng.uniform_int(1, 12));
        const BinaryImage img = random_raster(rng, w, h, density);
        const BinaryImage want_erode = reference_morph(img, radius, true);
        const BinaryImage want_dilate = reference_morph(img, radius, false);
        const std::string where = "w=" + std::to_string(w) + " h=" + std::to_string(h) +
                                  " density=" + std::to_string(density) +
                                  " r=" + std::to_string(radius);
        ASSERT_TRUE(erode(img, radius) == want_erode) << where;
        ASSERT_TRUE(dilate(img, radius) == want_dilate) << where;
        ASSERT_TRUE(open(img, radius) == reference_morph(want_erode, radius, false))
            << where;
        ASSERT_TRUE(close(img, radius) == reference_morph(want_dilate, radius, true))
            << where;

        // The packed kernels directly, with the padding invariant checked
        // on every output they write.
        BitImage bits, out, scratch_a, scratch_b;
        pack(img, bits);
        BinaryImage unpacked;
        close_into(bits, radius, out, scratch_a, scratch_b);
        ASSERT_TRUE(padding_is_zero(out)) << where;
        unpack(out, unpacked);
        ASSERT_TRUE(unpacked == reference_morph(want_dilate, radius, true)) << where;
        open_into(bits, radius, out, scratch_a, scratch_b);
        ASSERT_TRUE(padding_is_zero(out)) << where;
        unpack(out, unpacked);
        ASSERT_TRUE(unpacked == reference_morph(want_erode, radius, false)) << where;
      }
    }
  }
}

TEST(Morphology, PackedKernelsOnOneAndTwoRowRastersAtWholeWordWidths) {
  // Widths that fill every word exactly leave no padding bit to absorb a
  // carry, and one- and two-row rasters have no interior row: both edges of
  // the flat passes at once.
  hdc::util::Rng rng(6464);
  for (const int w : {64, 128}) {
    for (const int h : {1, 2}) {
      for (const double density : {0.1, 0.5, 0.9, 1.0}) {
        for (int radius = 1; radius <= 3; ++radius) {
          const BinaryImage img = random_raster(rng, w, h, density);
          const std::string where = "w=" + std::to_string(w) + " h=" + std::to_string(h) +
                                    " density=" + std::to_string(density) +
                                    " r=" + std::to_string(radius);
          const BinaryImage want_erode = reference_morph(img, radius, true);
          const BinaryImage want_dilate = reference_morph(img, radius, false);
          BitImage bits, out, scratch_a, scratch_b;
          pack(img, bits);
          BinaryImage unpacked;
          erode_into(bits, radius, out, scratch_a);
          ASSERT_TRUE(padding_is_zero(out)) << where;
          unpack(out, unpacked);
          ASSERT_TRUE(unpacked == want_erode) << where;
          dilate_into(bits, radius, out, scratch_a);
          ASSERT_TRUE(padding_is_zero(out)) << where;
          unpack(out, unpacked);
          ASSERT_TRUE(unpacked == want_dilate) << where;
          close_into(bits, radius, out, scratch_a, scratch_b);
          ASSERT_TRUE(padding_is_zero(out)) << where;
          unpack(out, unpacked);
          ASSERT_TRUE(unpacked == reference_morph(want_dilate, radius, true)) << where;
          open_into(bits, radius, out, scratch_a, scratch_b);
          ASSERT_TRUE(padding_is_zero(out)) << where;
          unpack(out, unpacked);
          ASSERT_TRUE(unpacked == reference_morph(want_erode, radius, false)) << where;
        }
      }
    }
  }
}

TEST(Morphology, CloseThenOpenMatchesPerPixelWindowOnNoisyRenderedFrames) {
  // The recogniser's stage 3 at its real geometry: a 480x360 σ = 25 frame
  // with clutter, thresholded as the recogniser does, then close -> open.
  const signs::ViewGeometry views[] = {{5.0, 3.0, 0.0}, {3.5, 2.0, 65.0}};
  std::uint64_t seed = 0x3a0f0000ULL;
  for (const signs::ViewGeometry& view : views) {
    for (const signs::HumanSign sign : {signs::HumanSign::kYes, signs::HumanSign::kNo}) {
      signs::RenderOptions options;
      options.noise_stddev = 25.0;
      options.clutter_count = 8;
      const std::uint64_t frame_seed = seed++;
      hdc::util::Rng rng(frame_seed);
      const GrayImage frame = signs::render_sign(sign, view, options, &rng);
      ASSERT_EQ(frame.width(), 480);
      ASSERT_EQ(frame.height(), 360);
      BitImage bits, closed, opened, scratch_a, scratch_b;
      otsu_threshold_dark_into(frame, bits);
      close_into(bits, 1, closed, scratch_a, scratch_b);
      open_into(closed, 1, opened, scratch_a, scratch_b);
      ASSERT_TRUE(padding_is_zero(opened));

      BinaryImage binary;
      unpack(bits, binary);
      const BinaryImage want = reference_morph(
          reference_morph(reference_morph(reference_morph(binary, 1, false), 1, true), 1,
                          true),
          1, false);
      BinaryImage got;
      unpack(opened, got);
      EXPECT_GT(foreground_area(want), 0u) << "seed " << frame_seed;
      EXPECT_TRUE(got == want) << "seed " << frame_seed;
    }
  }
}

TEST(Components, RunLabellingMatchesReferenceAcrossWordBoundaries) {
  hdc::util::Rng rng(9001);
  for (const int w : boundary_widths(rng)) {
    for (const double density : {0.01, 0.2, 0.45, 0.6, 0.9, 1.0}) {
      const int h = static_cast<int>(rng.uniform_int(1, 30));
      const BinaryImage img = random_raster(rng, w, h, density);
      const std::string where = "w=" + std::to_string(w) + " h=" + std::to_string(h) +
                                " density=" + std::to_string(density);
      const ReferenceLabeling want = reference_label(img);

      // Same runs, same components, and the largest-component mask equals
      // the reference's painted label.
      BitImage bits, mask;
      pack(img, bits);
      std::vector<Component> components;
      LabelScratch scratch;
      largest_component_mask_into(bits, 2, mask, components, scratch);
      ASSERT_TRUE(runs_match_reference(scratch, want)) << where;
      ASSERT_EQ(components.size(), want.components.size()) << where;
      const Component* largest = nullptr;
      for (std::size_t i = 0; i < components.size(); ++i) {
        const Component& g = components[i];
        const Component& r = want.components[i];
        ASSERT_EQ(g.label, r.label) << where;
        ASSERT_EQ(g.area, r.area) << where;
        ASSERT_EQ(g.min_x, r.min_x) << where;
        ASSERT_EQ(g.min_y, r.min_y) << where;
        ASSERT_EQ(g.max_x, r.max_x) << where;
        ASSERT_EQ(g.max_y, r.max_y) << where;
        ASSERT_EQ(g.centroid.x, r.centroid.x) << where;
        ASSERT_EQ(g.centroid.y, r.centroid.y) << where;
        if (r.area >= 2 && (largest == nullptr || r.area > largest->area)) largest = &r;
      }
      ASSERT_TRUE(padding_is_zero(mask)) << where;
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          const bool want_set = largest != nullptr && want.labels(x, y) == largest->label;
          ASSERT_EQ(mask.test(x, y), want_set) << where << " at " << x << "," << y;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hdc::imaging
