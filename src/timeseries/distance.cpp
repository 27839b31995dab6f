#include "timeseries/distance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(HDC_SIMD) && defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define HDC_ROTATION_KERNEL_NAME "avx2-fma"
#define HDC_ROTATION_KERNEL_AVX2 1
#elif defined(HDC_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#define HDC_ROTATION_KERNEL_NAME "neon"
#define HDC_ROTATION_KERNEL_NEON 1
#else
#define HDC_ROTATION_KERNEL_NAME "unrolled-scalar"
#endif

namespace hdc::timeseries {

double euclidean_sq(const Series& a, const Series& b) {
  if (a.size() != b.size()) throw std::invalid_argument("euclidean: size mismatch");
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum_sq += d * d;
  }
  return sum_sq;
}

double euclidean(const Series& a, const Series& b) {
  return std::sqrt(euclidean_sq(a, b));
}

namespace {

// Inner kernels. Four independent accumulators break the serial-add
// dependency chain so the CPU (and the auto-vectoriser at the baseline ISA)
// can overlap the multiply-adds; the AVX2/NEON variants do the same with
// explicit vector lanes. All variants reassociate the sum, so they agree
// with strict left-to-right accumulation only within a tolerance — which is
// why euclidean_rotation_invariant_reference is pinned within 1e-9, not
// bitwise.
#if defined(HDC_ROTATION_KERNEL_AVX2)

double dot_n(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8), _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12), _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
  }
  const __m256d acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double squared_diff_n(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

#elif defined(HDC_ROTATION_KERNEL_NEON)

double dot_n(const double* a, const double* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc2 = vfmaq_f64(acc2, vld1q_f64(a + i + 4), vld1q_f64(b + i + 4));
    acc3 = vfmaq_f64(acc3, vld1q_f64(a + i + 6), vld1q_f64(b + i + 6));
  }
  for (; i + 2 <= n; i += 2) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + i), vld1q_f64(b + i));
  }
  double sum = vaddvq_f64(vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double squared_diff_n(const double* a, const double* b, std::size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d0 = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    const float64x2_t d1 = vsubq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc0 = vfmaq_f64(acc0, d0, d0);
    acc1 = vfmaq_f64(acc1, d1, d1);
  }
  double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

#else

double dot_n(const double* a, const double* b, std::size_t n) {
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

double squared_diff_n(const double* a, const double* b, std::size_t n) {
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

#endif

/// One template's best rotation against a query.
struct RotationMatch {
  double distance;
  std::size_t shift;
};

// The scan proper. Minimising d_k^2 = sum(a^2) + sum(b^2) - 2 dot_k over k
// is maximising dot_k (the other terms do not depend on k), so the loop is
// n contiguous dot products against the doubled buffer — no modulo, no
// data-dependent branch. The reported distance is recomputed directly at
// the winning shift: the identity form cancels catastrophically near zero,
// and a self-match must report exactly 0. Ties (bit-equal dots) keep the
// lowest shift, same as the reference's strict-improvement rule.
RotationMatch best_rotation(const double* a, const RotationTemplate& t) {
  const std::size_t n = t.length;
  const double* doubled = t.doubled.data();
  double best_dot = -std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double d = dot_n(a, doubled + k, n);
    if (d > best_dot) {
      best_dot = d;
      best_k = k;
    }
  }
  const double sum_sq = squared_diff_n(a, doubled + best_k, n);
  return {std::sqrt(sum_sq), best_k};
}

}  // namespace

const char* rotation_kernel() noexcept { return HDC_ROTATION_KERNEL_NAME; }

void make_rotation_template_into(const Series& b, RotationTemplate& out) {
  const std::size_t n = b.size();
  out.length = n;
  out.doubled.resize(2 * n);
  std::copy(b.begin(), b.end(), out.doubled.begin());
  std::copy(b.begin(), b.end(),
            out.doubled.begin() + static_cast<std::ptrdiff_t>(n));
}

RotationTemplate make_rotation_template(const Series& b) {
  RotationTemplate out;
  make_rotation_template_into(b, out);
  return out;
}

double euclidean_rotation_invariant(const Series& a, const RotationTemplate& b,
                                    std::size_t* best_shift) {
  if (a.size() != b.length) {
    throw std::invalid_argument("euclidean_rotation_invariant: size mismatch");
  }
  if (b.length == 0) {
    if (best_shift != nullptr) *best_shift = 0;
    return 0.0;
  }
  const RotationMatch match = best_rotation(a.data(), b);
  if (best_shift != nullptr) *best_shift = match.shift;
  return match.distance;
}

double euclidean_rotation_invariant(const Series& a, const Series& b,
                                    std::size_t* best_shift) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("euclidean_rotation_invariant: size mismatch");
  }
  thread_local RotationTemplate scratch;
  make_rotation_template_into(b, scratch);
  return euclidean_rotation_invariant(a, scratch, best_shift);
}

double euclidean_rotation_invariant_reference(const Series& a, const Series& b,
                                              std::size_t* best_shift) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("euclidean_rotation_invariant: size mismatch");
  }
  const std::size_t n = a.size();
  if (n == 0) {
    if (best_shift != nullptr) *best_shift = 0;
    return 0.0;
  }
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < n; ++k) {
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = a[i] - b[(i + k) % n];
      sum_sq += d * d;
      if (sum_sq >= best) break;  // early abandon
    }
    if (sum_sq < best) {
      best = sum_sq;
      best_k = k;
    }
  }
  if (best_shift != nullptr) *best_shift = best_k;
  return std::sqrt(best);
}

double pearson_correlation(const Series& a, const Series& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("pearson_correlation: size mismatch");
  }
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace hdc::timeseries
