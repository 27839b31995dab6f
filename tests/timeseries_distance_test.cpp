#include "timeseries/distance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "timeseries/normalize.hpp"
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

// The one-shift-at-a-time scan that best_rotation ran before it took four
// shifts per pass, kept here as the bit-level oracle: one four-accumulator
// dot product per shift, strict `>` in ascending shift, and the distance
// recomputed with the four-accumulator squared difference.
double per_shift_dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double per_shift_squared_diff(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double per_shift_scan(const Series& a, const Series& b, std::size_t* best_shift) {
  const std::size_t n = a.size();
  Series doubled = b;
  doubled.insert(doubled.end(), b.begin(), b.end());
  double best_dot = -std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double d = per_shift_dot(a.data(), doubled.data() + k, n);
    if (d > best_dot) {
      best_dot = d;
      best_k = k;
    }
  }
  *best_shift = best_k;
  return std::sqrt(per_shift_squared_diff(a.data(), doubled.data() + best_k, n));
}

/// A z-normalised series symmetric about index 0 (s[i] == s[(n - i) % n]).
Series mirror_symmetric(std::size_t n, std::uint64_t seed) {
  const Series raw = noise(n, seed);
  Series out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = raw[std::min(i, (n - i) % n)];
  return z_normalize(out);
}

TEST(RotationInvariant, FourShiftScanMatchesPerShiftScanBitForBit) {
  // The scan takes four shifts per pass, but every dot must keep the bits of
  // the per-shift scan: same best shift, bit-equal distance. Lengths cover
  // every n % 4 tail, n below one pass, and the recogniser's 128.
  const std::vector<std::size_t> lengths = {1,  2,  3,   4,   5,   7,   8,
                                            9,  31, 64,  127, 128, 129, 255};
  std::uint64_t seed = 5000;
  std::size_t cases = 0;
  const auto expect_same = [&](const Series& a, const Series& b, const char* kind) {
    std::size_t shift_kernel = 0, shift_oracle = 0;
    const double d_kernel = euclidean_rotation_invariant(a, b, &shift_kernel);
    const double d_oracle = per_shift_scan(a, b, &shift_oracle);
    EXPECT_EQ(shift_kernel, shift_oracle) << kind << " n=" << a.size();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d_kernel), std::bit_cast<std::uint64_t>(d_oracle))
        << kind << " n=" << a.size() << ": " << d_kernel << " vs " << d_oracle;
    ++cases;
  };
  for (const std::size_t n : lengths) {
    for (int rep = 0; rep < 8; ++rep) {
      const Series a = z_normalize(noise(n, seed++));
      expect_same(a, z_normalize(noise(n, seed++)), "random");
      // The template is the query rotated: a planted best shift, distance 0.
      expect_same(a, rotate_left(a, (seed * 7) % n), "rotation of the query");
    }
    // Both series symmetric about index 0 make the dots of shifts k and
    // n - k equal in exact arithmetic but summed in different accumulators,
    // so which of the two wins turns on the rounding of each partial sum.
    // The query peaks at +/- m against the template, so the best shift is
    // one of that pair.
    for (int rep = 0; rep < 16 && n >= 3; ++rep) {
      const Series b = mirror_symmetric(n, seed++);
      const std::size_t m = 1 + (seed * 13) % (n - 1);
      const Series jitter = mirror_symmetric(n, seed++);
      Series a(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = b[(i + m) % n] + b[(i + n - m) % n] + 0.01 * jitter[i];
      }
      expect_same(z_normalize(a), b, "mirror pair");
    }
    // Exact ties: every shift of a constant series, and shifts k, k + 4, ...
    // of a period-4 series, give bit-equal dots; the lowest shift must win.
    expect_same(Series(n, 1.0), Series(n, 1.0), "constant");
    if (n % 4 == 0) {
      Series period4(n);
      for (std::size_t i = 0; i < n; ++i) {
        period4[i] = std::array<double, 4>{1.0, -2.0, 0.5, 3.0}[i % 4];
      }
      expect_same(rotate_left(period4, 1), period4, "period 4");
    }
  }
  EXPECT_GT(cases, 400u);
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
