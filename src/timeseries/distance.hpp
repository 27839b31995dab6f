// Distance measures between raw series: Euclidean, Pearson correlation and
// the circular-shift (rotation-invariant) variants needed for closed-contour
// signatures.
//
// The rotation-invariant scan is the recognition hot spot (streams x
// templates x O(n^2) per pair), so it ships as a vectorisable kernel built
// on two ideas:
//
//   1. A doubled-template buffer (the template concatenated with itself,
//      RotationTemplate) turns every circular rotation of b into a plain
//      contiguous slice `doubled[k .. k+n)`, killing the `% n` in the inner
//      loop.
//   2. The identity  d_k^2 = sum(a^2) + sum(b^2) - 2 * dot(a, b rotated k)
//      shows the only k-dependent term is the dot product, so minimising
//      d_k is exactly maximising dot(a, doubled + k): the scan becomes n
//      straight-line dot products (4-accumulator unroll, taken four shifts
//      per pass so one load of the query feeds four dots; one portable
//      kernel on every target).
//
// The distance actually *returned* is recomputed at the winning shift with
// the direct sum-of-squared-differences form: the identity form loses
// precision near zero (catastrophic cancellation turns an exact 0 into
// ~sqrt(eps)), and a query matching its own template must report exactly 0.
// The refine pass is O(n) against the O(n^2) scan, so it is free.
//
// Reassociated floating-point sums are not bit-identical to the historical
// scalar loop, so that loop is kept as euclidean_rotation_invariant_reference
// and the kernel is pinned against it (identical best shift, distance within
// 1e-9) in tests/timeseries_distance_test.cpp and in the
// bench_distance_micro identity gate.
#pragma once

#include <cstddef>

#include "timeseries/series.hpp"

namespace hdc::timeseries {

/// Euclidean (L2) distance in the units of the series values; series must
/// have equal length. O(n), no allocation.
[[nodiscard]] double euclidean(const Series& a, const Series& b);

/// Squared Euclidean distance (avoids the final sqrt in inner loops).
/// O(n), no allocation.
[[nodiscard]] double euclidean_sq(const Series& a, const Series& b);

/// Precomputed matching form of one rotation template: the series
/// concatenated with itself, so the slice `doubled[k .. k + length)` IS the
/// series rotated left by k — no modulo indexing. Build once per stored
/// template (SignDatabase::add_template does this), reuse for every query.
/// The buffer is 2n doubles; treat as immutable once built.
struct RotationTemplate {
  Series doubled;         ///< template values twice over, size == 2 * length
  std::size_t length{0};  ///< n of the original series
};

/// Builds the doubled form of `b`. O(n) copies plus the allocation.
[[nodiscard]] RotationTemplate make_rotation_template(const Series& b);

/// make_rotation_template into `out` (resized in place, allocation-free
/// once warm); identical to the allocating version, which delegates here.
/// `out.doubled` must not alias `b`.
void make_rotation_template_into(const Series& b, RotationTemplate& out);

/// Minimum Euclidean distance over all circular rotations of `b`.
/// O(n^2) multiply-adds but straight-line and vectorised — the fast path
/// for signature matching. Writes the best rotation to `best_shift` when
/// non-null; exact ties resolve to the lowest shift, matching the
/// reference. Throws std::invalid_argument when a.size() != b.length.
/// No allocation.
[[nodiscard]] double euclidean_rotation_invariant(const Series& a,
                                                  const RotationTemplate& b,
                                                  std::size_t* best_shift = nullptr);

/// Convenience overload taking a raw series for `b`: builds the doubled
/// buffer in a thread-local scratch (allocation-free once warm per thread)
/// and runs the kernel above. Same result, same tie-breaking. Hot paths
/// that hold templates should precompute RotationTemplate instead.
[[nodiscard]] double euclidean_rotation_invariant(const Series& a, const Series& b,
                                                  std::size_t* best_shift = nullptr);

/// The historical scalar scan (modulo indexing + early abandon), kept as
/// the semantic anchor for the vectorised kernel: tests and the
/// bench_distance_micro identity gate pin the kernel against this
/// implementation (same best shift; distance within 1e-9 — reassociated
/// sums are not bit-identical). O(n^2), no allocation.
[[nodiscard]] double euclidean_rotation_invariant_reference(
    const Series& a, const Series& b, std::size_t* best_shift = nullptr);

/// Pearson correlation coefficient in [-1, 1]; 0 when either side is flat
/// or shorter than 2. O(n), no allocation.
[[nodiscard]] double pearson_correlation(const Series& a, const Series& b);

}  // namespace hdc::timeseries
