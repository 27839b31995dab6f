#include "imaging/contour.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "imaging/bit_image.hpp"
#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/signature.hpp"
#include "timeseries/distance.hpp"
#include "timeseries/normalize.hpp"
#include "util/rng.hpp"

namespace hdc::imaging {
namespace {

/// Packs `mask` and traces it with the packed tracer.
Contour trace(const BinaryImage& mask) {
  BitImage bits;
  pack(mask, bits);
  Contour contour;
  trace_boundary_into(bits, contour);
  return contour;
}

TEST(TraceBoundary, EmptyImageGivesEmptyContour) {
  const BinaryImage img(10, 10, kBackground);
  EXPECT_TRUE(trace(img).empty());
}

TEST(TraceBoundary, SinglePixel) {
  BinaryImage img(10, 10, kBackground);
  img(4, 5) = kForeground;
  const Contour contour = trace(img);
  ASSERT_EQ(contour.size(), 1u);
  EXPECT_EQ(contour[0], Vec2(4.0, 5.0));
}

TEST(TraceBoundary, RectanglePerimeter) {
  BinaryImage img(30, 30, kBackground);
  fill_rect(img, 5, 5, 14, 12, kForeground);  // 10x8 block
  const Contour contour = trace(img);
  // Boundary pixel count of a w x h solid block: 2w + 2h - 4.
  EXPECT_EQ(contour.size(), 2u * 10 + 2u * 8 - 4);
  // All points lie on the block border.
  for (const Vec2& p : contour) {
    const bool on_x_edge = p.x == 5.0 || p.x == 14.0;
    const bool on_y_edge = p.y == 5.0 || p.y == 12.0;
    EXPECT_TRUE(on_x_edge || on_y_edge) << p.x << "," << p.y;
  }
}

TEST(TraceBoundary, DiscBoundaryIsClosedRing) {
  BinaryImage img(60, 60, kBackground);
  fill_disc(img, {30.0, 30.0}, 18.0, kForeground);
  const Contour contour = trace(img);
  ASSERT_GT(contour.size(), 60u);
  // Every boundary point is ~18 px from the centre (the disc is rasterised
  // on pixel centres at +0.5, hence the 2 px slack).
  for (const Vec2& p : contour) {
    EXPECT_NEAR(p.distance_to({30.0, 30.0}), 18.0, 2.0);
  }
  // Consecutive points are 8-neighbours.
  for (std::size_t i = 0; i + 1 < contour.size(); ++i) {
    EXPECT_LE(std::abs(contour[i].x - contour[i + 1].x), 1.0);
    EXPECT_LE(std::abs(contour[i].y - contour[i + 1].y), 1.0);
  }
}

TEST(ContourMetrics, CentroidPerimeterArea) {
  BinaryImage img(40, 40, kBackground);
  fill_rect(img, 10, 10, 29, 29, kForeground);  // 20x20
  const Contour contour = trace(img);
  const Vec2 centroid = contour_centroid(contour);
  EXPECT_NEAR(centroid.x, 19.5, 0.1);
  EXPECT_NEAR(centroid.y, 19.5, 0.1);
  EXPECT_NEAR(contour_perimeter(contour), 4.0 * 19.0, 4.0);
  EXPECT_NEAR(contour_area(contour), 19.0 * 19.0, 15.0);
  EXPECT_DOUBLE_EQ(contour_area({}), 0.0);
  EXPECT_DOUBLE_EQ(contour_perimeter({{1.0, 1.0}}), 0.0);
}

// The modulo walk resample_by_arc_length_into ran before it read each
// segment's length from one pass, kept here as the bit-level oracle, with
// the modulo perimeter it summed first.
double modulo_perimeter(const Contour& contour) {
  if (contour.size() < 2) return 0.0;
  double length = 0.0;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    length += contour[i].distance_to(contour[(i + 1) % contour.size()]);
  }
  return length;
}

Contour modulo_walk(const Contour& contour, std::size_t count) {
  Contour out;
  if (contour.empty() || count == 0) return out;
  if (contour.size() == 1) return Contour(count, contour.front());
  const double total = modulo_perimeter(contour);
  if (total <= 0.0) return Contour(count, contour.front());
  const double step = total / static_cast<double>(count);
  double target = 0.0;
  double walked = 0.0;
  std::size_t seg = 0;
  Vec2 seg_a = contour[0];
  Vec2 seg_b = contour[1 % contour.size()];
  double seg_len = seg_a.distance_to(seg_b);
  for (std::size_t i = 0; i < count; ++i, target += step) {
    while (walked + seg_len < target && seg < contour.size()) {
      walked += seg_len;
      ++seg;
      seg_a = contour[seg % contour.size()];
      seg_b = contour[(seg + 1) % contour.size()];
      seg_len = seg_a.distance_to(seg_b);
    }
    const double remain = target - walked;
    const double t = seg_len > 0.0 ? remain / seg_len : 0.0;
    out.push_back(seg_a + (seg_b - seg_a) * t);
  }
  return out;
}

TEST(ContourMetrics, ResampleMatchesModuloWalkBitForBit) {
  std::vector<Contour> contours = {
      {{3.0, 4.0}},
      {{0.0, 0.0}, {5.0, 1.0}},
      {{2.0, 2.0}, {2.0, 2.0}},  // every segment of zero length
      {{0.0, 0.0}, {4.0, 0.5}, {1.5, 3.0}},
  };
  // Random closed polygons in which some points repeat, so some segments
  // have zero length, including the closing one back to the first point.
  hdc::util::Rng rng(2024);
  for (const std::size_t size : {4u, 5u, 17u, 64u, 301u}) {
    Contour polygon;
    while (polygon.size() < size) {
      if (!polygon.empty() && rng.uniform(0.0, 1.0) < 0.2) {
        polygon.push_back(polygon.back());
      } else {
        polygon.emplace_back(rng.uniform(0.0, 480.0), rng.uniform(0.0, 360.0));
      }
    }
    contours.push_back(polygon);
    polygon.back() = polygon.front();
    contours.push_back(polygon);
  }
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Contour out;
  for (const Contour& contour : contours) {
    EXPECT_EQ(bits(contour_perimeter(contour)), bits(modulo_perimeter(contour)))
        << "size " << contour.size();
    // 4 x size samples put several on every segment, the closing one
    // (contour.back() -> contour.front()) included.
    for (const std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{128},
                                    4 * contour.size()}) {
      resample_by_arc_length_into(contour, count, out);
      const Contour expected = modulo_walk(contour, count);
      ASSERT_EQ(out.size(), expected.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(bits(out[i].x), bits(expected[i].x))
            << "size " << contour.size() << " count " << count << " point " << i;
        EXPECT_EQ(bits(out[i].y), bits(expected[i].y))
            << "size " << contour.size() << " count " << count << " point " << i;
      }
    }
  }
}

TEST(ResampleArcLength, UniformSpacingOnSquare) {
  const Contour square = {{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
  const Contour resampled = resample_by_arc_length(square, 40);
  ASSERT_EQ(resampled.size(), 40u);
  // Consecutive samples are 1.0 apart (perimeter 40 / 40 samples).
  for (std::size_t i = 0; i + 1 < resampled.size(); ++i) {
    EXPECT_NEAR(resampled[i].distance_to(resampled[i + 1]), 1.0, 1e-9);
  }
  EXPECT_EQ(resampled[0], Vec2(0.0, 0.0));
}

TEST(ResampleArcLength, DegenerateInputs) {
  EXPECT_TRUE(resample_by_arc_length({}, 8).empty());
  const Contour point(1, Vec2{2.0, 3.0});
  const Contour out = resample_by_arc_length(point, 4);
  ASSERT_EQ(out.size(), 4u);
  for (const Vec2& p : out) EXPECT_EQ(p, Vec2(2.0, 3.0));
}

TEST(Signature, CircleIsNearlyFlat) {
  BinaryImage img(80, 80, kBackground);
  fill_disc(img, {40.0, 40.0}, 25.0, kForeground);
  const auto sig = centroid_distance_signature(trace(img), 64);
  ASSERT_EQ(sig.size(), 64u);
  const double mean = hdc::timeseries::mean(sig);
  for (double v : sig) EXPECT_NEAR(v, mean, 1.2);
}

TEST(Signature, SquareHasFourCornerLobes) {
  BinaryImage img(60, 60, kBackground);
  fill_rect(img, 15, 15, 44, 44, kForeground);
  const auto sig = centroid_distance_signature(trace(img), 128);
  // Count local maxima above the mean (corners).
  const double mean = hdc::timeseries::mean(sig);
  int lobes = 0;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const double prev = sig[(i + sig.size() - 1) % sig.size()];
    const double next = sig[(i + 1) % sig.size()];
    if (sig[i] > mean && sig[i] >= prev && sig[i] > next) ++lobes;
  }
  EXPECT_EQ(lobes, 4);
}

TEST(Signature, RotationOfShapeIsCircularShiftOfSignature) {
  // THE property the paper's rotation-invariant matching relies on:
  // rotating the shape in the image plane circularly shifts its
  // centroid-distance signature.
  const auto render_L = [](double angle_rad) {
    BinaryImage img(120, 120, kBackground);
    // An L-shaped polygon (asymmetric, so rotation matters), rotated about
    // the image centre.
    const std::vector<Vec2> base = {{-15.0, -25.0}, {5.0, -25.0}, {5.0, 5.0},
                                    {25.0, 5.0},   {25.0, 25.0}, {-15.0, 25.0}};
    std::vector<Vec2> rotated;
    for (const Vec2& p : base) rotated.push_back(p.rotated(angle_rad) + Vec2{60.0, 60.0});
    fill_polygon(img, rotated, kForeground);
    return centroid_distance_signature(trace(img), 128);
  };
  const auto a = hdc::timeseries::z_normalize(render_L(0.0));
  const auto b = hdc::timeseries::z_normalize(render_L(1.1));
  const auto c = hdc::timeseries::z_normalize(render_L(2.6));
  ASSERT_EQ(a.size(), 128u);
  ASSERT_EQ(b.size(), 128u);
  // Rotation-invariant matching aligns the rotated shapes' signatures
  // tightly (raster noise only), for any rotation.
  EXPECT_LT(hdc::timeseries::euclidean_rotation_invariant(a, b), 2.0);
  EXPECT_LT(hdc::timeseries::euclidean_rotation_invariant(a, c), 2.0);
  // And it never exceeds the unshifted distance.
  EXPECT_LE(hdc::timeseries::euclidean_rotation_invariant(a, b),
            hdc::timeseries::euclidean(a, b) + 1e-9);
}

TEST(Signature, DegenerateContours) {
  EXPECT_TRUE(centroid_distance_signature({}, 64).empty());
  EXPECT_TRUE(centroid_distance_signature({{1.0, 1.0}, {2.0, 2.0}}, 64).empty());
  BinaryImage img(20, 20, kBackground);
  fill_disc(img, {10.0, 10.0}, 5.0, kForeground);
  EXPECT_TRUE(centroid_distance_signature(trace(img), 0).empty());
}

TEST(AngleSignature, MonotoneForConvexShape) {
  BinaryImage img(60, 60, kBackground);
  fill_disc(img, {30.0, 30.0}, 20.0, kForeground);
  const auto sig = centroid_angle_signature(trace(img), 64);
  ASSERT_EQ(sig.size(), 64u);
  // Unwrapped angle around a convex contour sweeps a full turn.
  EXPECT_NEAR(std::abs(sig.back() - sig.front()), 2.0 * M_PI, 0.5);
}

TEST(AspectNormalize, CancelsAnisotropicScaling) {
  // The same lobed shape rendered with different vertical squash (the
  // depression-angle effect) produces near-identical signatures once the
  // contour is aspect-normalised — and clearly different ones without.
  const auto render_L = [](double squash_y, bool aspect) {
    BinaryImage img(140, 140, kBackground);
    const std::vector<Vec2> base = {{-15.0, -25.0}, {5.0, -25.0}, {5.0, 5.0},
                                    {25.0, 5.0},   {25.0, 25.0}, {-15.0, 25.0}};
    std::vector<Vec2> scaled;
    for (const Vec2& p : base) {
      scaled.push_back({p.x * 2.0 + 70.0, p.y * 2.0 * squash_y + 70.0});
    }
    fill_polygon(img, scaled, kForeground);
    Contour c = trace(img);
    if (aspect) c = normalize_contour_aspect(c);
    return hdc::timeseries::z_normalize(centroid_distance_signature(c, 64));
  };
  const auto tall_norm = render_L(1.0, true);
  const auto squashed_norm = render_L(0.55, true);
  const auto tall_raw = render_L(1.0, false);
  const auto squashed_raw = render_L(0.55, false);
  const double with = hdc::timeseries::euclidean_rotation_invariant(tall_norm, squashed_norm);
  const double without = hdc::timeseries::euclidean_rotation_invariant(tall_raw, squashed_raw);
  EXPECT_LT(with, 1.5);
  EXPECT_LT(with, 0.6 * without);
}

TEST(AspectNormalize, BoundingBoxBecomesSquare) {
  Contour c = {{2.0, 3.0}, {8.0, 3.0}, {8.0, 30.0}, {2.0, 30.0}};
  const Contour n = normalize_contour_aspect(c, 100.0);
  double min_x = 1e18, max_x = -1e18, min_y = 1e18, max_y = -1e18;
  for (const Vec2& p : n) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  EXPECT_NEAR(max_x - min_x, 100.0, 1e-9);
  EXPECT_NEAR(max_y - min_y, 100.0, 1e-9);
  // Degenerate contours pass through unchanged.
  const Contour flat = {{1.0, 5.0}, {9.0, 5.0}};
  EXPECT_EQ(normalize_contour_aspect(flat), flat);
}


// Byte-raster Moore tracer with Jacob's stopping criterion, written out
// pixel by pixel: the reference the packed tracer's bit tests must match.
Contour reference_trace(const BinaryImage& mask) {
  constexpr std::array<std::array<int, 2>, 8> offsets = {{
      {-1, 0}, {-1, -1}, {0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1},
  }};
  const auto fg = [&mask](int x, int y) {
    return mask.in_bounds(x, y) && mask(x, y) == kForeground;
  };
  Contour contour;
  int sx = -1, sy = -1;
  for (int y = 0; y < mask.height() && sx < 0; ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      if (fg(x, y)) {
        sx = x;
        sy = y;
        break;
      }
    }
  }
  if (sx < 0) return contour;
  contour.emplace_back(sx, sy);
  bool has_neighbour = false;
  for (const auto& off : offsets) {
    has_neighbour = has_neighbour || fg(sx + off[0], sy + off[1]);
  }
  if (!has_neighbour) return contour;
  int px = sx, py = sy, bx = sx - 1, by = sy;
  const std::size_t max_steps = mask.pixel_count() * 4 + 8;
  for (std::size_t step = 0; step < max_steps; ++step) {
    int back = 0;
    for (int d = 0; d < 8; ++d) {
      if (offsets[d][0] == bx - px && offsets[d][1] == by - py) back = d;
    }
    int found = -1;
    int lx = bx, ly = by;
    for (int i = 1; i <= 8; ++i) {
      const int d = (back + i) % 8;
      const int nx = px + offsets[d][0];
      const int ny = py + offsets[d][1];
      if (fg(nx, ny)) {
        found = d;
        break;
      }
      lx = nx;
      ly = ny;
    }
    if (found < 0) break;
    px += offsets[found][0];
    py += offsets[found][1];
    bx = lx;
    by = ly;
    if (px == sx && py == sy && bx == sx - 1 && by == sy) break;
    contour.emplace_back(px, py);
  }
  if (contour.size() > 1 && contour.back() == contour.front()) contour.pop_back();
  return contour;
}

TEST(TraceBoundary, PackedTracerMatchesByteReferenceAcrossWordBoundaries) {
  hdc::util::Rng rng(31337);
  const std::vector<int> widths = {1,   63,  64,  65, 127, 128, 129,
                                   static_cast<int>(rng.uniform_int(2, 200))};
  for (const int w : widths) {
    for (const double density : {0.01, 0.1, 0.4, 0.7, 0.97}) {
      const int h = static_cast<int>(rng.uniform_int(1, 24));
      BinaryImage img(w, h, kBackground);
      for (std::uint8_t& px : img.data()) {
        px = rng.uniform() < density ? kForeground : kBackground;
      }
      const std::string where = "w=" + std::to_string(w) + " h=" + std::to_string(h) +
                                " density=" + std::to_string(density);
      // The raw raster (first region in raster order) and its largest
      // component, which is what the recogniser traces.
      BitImage bits, largest;
      pack(img, bits);
      std::vector<Component> components;
      LabelScratch scratch;
      largest_component_mask_into(bits, 1, largest, components, scratch);
      BinaryImage largest_bytes;
      unpack(largest, largest_bytes);
      for (const BinaryImage& mask : {img, largest_bytes}) {
        ASSERT_EQ(trace(mask), reference_trace(mask)) << where;
      }
    }
  }
  // Solid shapes straddling word boundaries, including the raster edges.
  for (const int w : widths) {
    BinaryImage img(w, 20, kBackground);
    fill_rect(img, std::max(0, w / 2 - 3), 2, std::min(w - 1, w / 2 + 3), 17, kForeground);
    fill_disc(img, {static_cast<double>(w - 1), 10.0}, 6.0, kForeground);
    ASSERT_EQ(trace(img), reference_trace(img)) << "w=" << w;
  }
}

}  // namespace
}  // namespace hdc::imaging
