#include "timeseries/distance.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

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

// Inner kernels, the only ones on every target. Each dot product keeps
// four independent accumulators, which splits the serial-add dependency
// chain; the rotation scan runs four shifts per pass (dot4_n below), so
// eight chains overlap where one dot_n has two and the scan is no longer
// bound by add latency. The sum is reassociated, so it agrees with strict
// left-to-right accumulation only within a tolerance — which is why
// euclidean_rotation_invariant_reference is pinned within 1e-9, not
// bitwise. The build turns off FP contraction, so `s += a * b` rounds the
// product and the sum separately, and the result has the same bits whether
// or not the target has FMA.
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

/// One template's best rotation against a query.
struct RotationMatch {
  double distance;
  std::size_t shift;
};

// Two doubles in one 16-byte register (GCC/Clang vector extension; SSE2 on
// x86-64, NEON on AArch64, a pair of scalars elsewhere). `+` and `*` act
// element by element and round exactly as the scalar operators do.
typedef double Pair __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// dot_n of `a` against the four slices b, b + 1, b + 2 and b + 3, in one
// pass over i. Each slice keeps dot_n's own four accumulators — (s0, s1) in
// lo[j], (s2, s3) in hi[j] — updated with the same terms in the same order,
// and combined and tail-summed as dot_n does, so dot j has the bits of
// dot_n(a, b + j, n). One load of a[i .. i+3] feeds all four slices, which
// gives eight independent add chains where one dot_n has two.
std::array<double, 4> dot4_n(const double* a, const double* b, std::size_t n) {
  Pair lo[4] = {}, hi[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Pair a_lo = load_pair(a + i);
    const Pair a_hi = load_pair(a + i + 2);
    for (std::size_t j = 0; j < 4; ++j) {
      lo[j] += a_lo * load_pair(b + j + i);
      hi[j] += a_hi * load_pair(b + j + i + 2);
    }
  }
  std::array<double, 4> dots;
  for (std::size_t j = 0; j < 4; ++j) {
    double sum = (lo[j][0] + lo[j][1]) + (hi[j][0] + hi[j][1]);
    for (std::size_t t = i; t < n; ++t) sum += a[t] * b[j + t];
    dots[j] = sum;
  }
  return dots;
}

// The scan proper. Minimising d_k^2 = sum(a^2) + sum(b^2) - 2 dot_k over k
// is maximising dot_k (the other terms do not depend on k), so the loop is
// n contiguous dot products against the doubled buffer — no modulo, no
// data-dependent branch — taken four shifts per pass (dot4_n), the last
// n % 4 shifts one at a time (dot_n). The reported distance is recomputed
// directly at the winning shift: the identity form cancels catastrophically
// near zero, and a self-match must report exactly 0. Shifts are compared in
// ascending order with a strict `>`, so ties (bit-equal dots) keep the
// lowest shift, same as the reference's strict-improvement rule.
RotationMatch best_rotation(const double* a, const RotationTemplate& t) {
  const std::size_t n = t.length;
  const double* doubled = t.doubled.data();
  double best_dot = -std::numeric_limits<double>::infinity();
  std::size_t best_k = 0;
  const auto consider = [&](double d, std::size_t k) {
    if (d > best_dot) {
      best_dot = d;
      best_k = k;
    }
  };
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const std::array<double, 4> dots = dot4_n(a, doubled + k, n);
    for (std::size_t j = 0; j < 4; ++j) consider(dots[j], k + j);
  }
  for (; k < n; ++k) consider(dot_n(a, doubled + k, n), k);
  const double sum_sq = squared_diff_n(a, doubled + best_k, n);
  return {std::sqrt(sum_sq), best_k};
}

}  // namespace

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
