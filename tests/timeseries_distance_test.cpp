#include "timeseries/distance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "timeseries/series.hpp"
#include "util/rng.hpp"

namespace hdc::timeseries {
namespace {

Series noise(std::size_t n, std::uint64_t seed) {
  hdc::util::Rng rng(seed);
  Series out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.gaussian());
  return out;
}

TEST(Euclidean, BasicsAndValidation) {
  EXPECT_DOUBLE_EQ(euclidean({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(euclidean_sq({0.0, 0.0}, {3.0, 4.0}), 25.0);
  EXPECT_DOUBLE_EQ(euclidean({1.0}, {1.0}), 0.0);
  EXPECT_THROW((void)euclidean({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Euclidean, MetricAxioms) {
  const Series a = noise(32, 1), b = noise(32, 2), c = noise(32, 3);
  EXPECT_DOUBLE_EQ(euclidean(a, a), 0.0);
  EXPECT_DOUBLE_EQ(euclidean(a, b), euclidean(b, a));
  EXPECT_LE(euclidean(a, c), euclidean(a, b) + euclidean(b, c) + 1e-9);
}

TEST(RotationInvariant, RecoversPlantedRotation) {
  const Series a = noise(64, 7);
  for (std::size_t planted : {0u, 1u, 13u, 32u, 63u}) {
    const Series b = rotate_left(a, planted);
    std::size_t shift = 0;
    const double d = euclidean_rotation_invariant(a, b, &shift);
    EXPECT_NEAR(d, 0.0, 1e-9) << "planted=" << planted;
    // Rotating b left by `shift` must reproduce a: shift = n - planted.
    EXPECT_EQ((planted + shift) % a.size(), 0u) << "planted=" << planted;
  }
}

TEST(RotationInvariant, SelfMatchIsExactlyZero) {
  // The kernel recomputes the distance directly at the winning shift, so a
  // query matching its own template reports exactly 0 — the identity form
  // alone would leak ~sqrt(eps) of cancellation noise. The recogniser's
  // "distance 0.000 under canonical conditions" guarantee rides on this.
  const Series a = noise(128, 17);
  std::size_t shift = 123;
  EXPECT_EQ(euclidean_rotation_invariant(a, a, &shift), 0.0);
  EXPECT_EQ(shift, 0u);
}

TEST(RotationInvariant, NeverExceedsPlainEuclidean) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Series a = noise(48, 100 + seed);
    const Series b = noise(48, 200 + seed);
    EXPECT_LE(euclidean_rotation_invariant(a, b), euclidean(a, b) + 1e-9);
  }
}

TEST(RotationInvariant, EmptySeries) {
  std::size_t shift = 99;
  EXPECT_DOUBLE_EQ(euclidean_rotation_invariant(Series{}, Series{}, &shift), 0.0);
  EXPECT_EQ(shift, 0u);
  shift = 99;
  EXPECT_DOUBLE_EQ(euclidean_rotation_invariant_reference(Series{}, Series{}, &shift),
                   0.0);
  EXPECT_EQ(shift, 0u);
  // Template form of the same degenerate case.
  const RotationTemplate empty = make_rotation_template(Series{});
  shift = 99;
  EXPECT_DOUBLE_EQ(euclidean_rotation_invariant(Series{}, empty, &shift), 0.0);
  EXPECT_EQ(shift, 0u);
}

TEST(RotationInvariant, SingleElementSeries) {
  std::size_t shift = 99;
  EXPECT_NEAR(euclidean_rotation_invariant(Series{3.0}, Series{-1.5}, &shift), 4.5,
              1e-12);
  EXPECT_EQ(shift, 0u);
  EXPECT_DOUBLE_EQ(euclidean_rotation_invariant(Series{2.0}, Series{2.0}), 0.0);
}

TEST(RotationInvariant, ConstantSeries) {
  // Flat series: every shift ties at sqrt(n)*|c1-c2|; the lowest shift must
  // win, in both the kernel and the reference.
  const Series a(16, 2.0), b(16, -1.0);
  std::size_t shift_kernel = 99, shift_reference = 99;
  const double d_kernel = euclidean_rotation_invariant(a, b, &shift_kernel);
  const double d_reference =
      euclidean_rotation_invariant_reference(a, b, &shift_reference);
  EXPECT_NEAR(d_kernel, std::sqrt(16.0) * 3.0, 1e-9);
  EXPECT_NEAR(d_kernel, d_reference, 1e-9);
  EXPECT_EQ(shift_kernel, 0u);
  EXPECT_EQ(shift_reference, 0u);
}

TEST(RotationInvariant, TiedShiftsLowestWins) {
  // A period-4 pattern over n=8: rotations k and k+4 are elementwise
  // identical, so the two best shifts tie bit-for-bit. Both implementations
  // must keep the lowest one.
  const Series pattern = {1.0, -2.0, 0.5, 3.0, 1.0, -2.0, 0.5, 3.0};
  const Series query = rotate_left(pattern, 1);  // matches at shifts 1 and 5
  std::size_t shift_kernel = 99, shift_reference = 99;
  const double d_kernel =
      euclidean_rotation_invariant(query, pattern, &shift_kernel);
  const double d_reference =
      euclidean_rotation_invariant_reference(query, pattern, &shift_reference);
  EXPECT_NEAR(d_kernel, 0.0, 1e-12);
  EXPECT_NEAR(d_reference, 0.0, 1e-12);
  EXPECT_EQ(shift_kernel, shift_reference);
  EXPECT_EQ(shift_kernel, 1u);
}

TEST(RotationInvariant, NullBestShiftAccepted) {
  const Series a = noise(32, 41), b = noise(32, 42);
  const double with_null = euclidean_rotation_invariant(a, b, nullptr);
  std::size_t shift = 0;
  EXPECT_DOUBLE_EQ(with_null, euclidean_rotation_invariant(a, b, &shift));
  EXPECT_DOUBLE_EQ(with_null, euclidean_rotation_invariant(a, b));
}

TEST(RotationInvariant, SizeMismatchThrowsEverywhere) {
  const Series a = noise(8, 51), b = noise(9, 52);
  EXPECT_THROW((void)euclidean_rotation_invariant(a, b), std::invalid_argument);
  EXPECT_THROW((void)euclidean_rotation_invariant_reference(a, b),
               std::invalid_argument);
  const RotationTemplate t = make_rotation_template(b);
  EXPECT_THROW((void)euclidean_rotation_invariant(a, t), std::invalid_argument);
}

TEST(RotationInvariant, KernelMatchesReferenceFuzz) {
  // The acceptance contract of the rewrite: identical best shift, distance
  // within 1e-9 of the scalar scan — over random lengths, not just the
  // n=128 the recogniser uses, and including scaled (non-normalised) data.
  const std::vector<std::size_t> lengths = {1, 2, 3, 5, 8, 16, 33,
                                            64, 100, 127, 128, 200, 257};
  std::uint64_t seed = 1000;
  for (const std::size_t n : lengths) {
    for (int rep = 0; rep < 6; ++rep) {
      Series a = noise(n, seed++);
      Series b = noise(n, seed++);
      if (rep % 3 == 1) {  // planted rotation: near-zero distances
        b = rotate_left(a, (seed * 7) % n);
      }
      if (rep % 2 == 1) {  // scale breaks any unit-variance assumption
        for (double& v : a) v *= 37.5;
        for (double& v : b) v *= 37.5;
      }
      std::size_t shift_kernel = 0, shift_reference = 0;
      const double d_kernel = euclidean_rotation_invariant(a, b, &shift_kernel);
      const double d_reference =
          euclidean_rotation_invariant_reference(a, b, &shift_reference);
      EXPECT_EQ(shift_kernel, shift_reference) << "n=" << n << " rep=" << rep;
      EXPECT_NEAR(d_kernel, d_reference, 1e-9) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(RotationInvariant, TemplateFormMatchesSeriesForm) {
  const Series a = noise(128, 300), b = noise(128, 301);
  const RotationTemplate t = make_rotation_template(b);
  EXPECT_EQ(t.length, 128u);
  ASSERT_EQ(t.doubled.size(), 256u);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(t.doubled[i], b[i]);
    EXPECT_EQ(t.doubled[i + 128], b[i]);
  }
  std::size_t shift_series = 0, shift_template = 0;
  const double d_series = euclidean_rotation_invariant(a, b, &shift_series);
  const double d_template = euclidean_rotation_invariant(a, t, &shift_template);
  EXPECT_EQ(d_series, d_template);  // same kernel, bitwise equal
  EXPECT_EQ(shift_series, shift_template);
}

TEST(RotationInvariant, EmptySeriesIsZeroAtShiftZero) {
  const RotationTemplate empty = make_rotation_template(Series{});
  std::size_t shift = 5;
  EXPECT_DOUBLE_EQ(euclidean_rotation_invariant(Series{}, empty, &shift), 0.0);
  EXPECT_EQ(shift, 0u);
}

TEST(Pearson, PerfectCorrelations) {
  const Series a = {1.0, 2.0, 3.0, 4.0};
  Series pos, neg;
  for (double v : a) {
    pos.push_back(2.0 * v + 1.0);
    neg.push_back(-3.0 * v);
  }
  EXPECT_NEAR(pearson_correlation(a, pos), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(a, neg), -1.0, 1e-12);
}

TEST(Pearson, FlatSeriesGivesZero) {
  EXPECT_DOUBLE_EQ(pearson_correlation({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation({1.0}, {2.0}), 0.0);
}

TEST(Pearson, IndependentNoiseNearZero) {
  const Series a = noise(5000, 31);
  const Series b = noise(5000, 32);
  EXPECT_NEAR(pearson_correlation(a, b), 0.0, 0.05);
}

}  // namespace
}  // namespace hdc::timeseries
