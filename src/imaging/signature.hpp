// Shape -> time-series conversion ("converting shapes into a time-series",
// paper §IV, after ref [21]). The centroid-distance signature maps each
// boundary point to its distance from the shape centroid, yielding a
// 1-D periodic series whose circular shifts correspond to rotations of the
// shape — the property that makes SAX matching rotation invariant.
#pragma once

#include "imaging/contour.hpp"
#include "timeseries/series.hpp"

namespace hdc::imaging {

/// Default number of samples in a shape signature. 128 balances fidelity
/// against the cost of rotation-invariant matching.
inline constexpr std::size_t kDefaultSignatureSize = 128;

/// Computes the centroid-distance signature of a closed contour:
/// the contour is resampled to `samples` points equally spaced by arc
/// length, then each point is mapped to its distance from the centroid.
/// Returns an empty series for contours with fewer than 3 points.
[[nodiscard]] hdc::timeseries::Series centroid_distance_signature(
    const Contour& contour, std::size_t samples = kDefaultSignatureSize);

/// Complex-coordinate signature variant: angle of each resampled boundary
/// point around the centroid, unwrapped. Provided for ablation comparisons.
[[nodiscard]] hdc::timeseries::Series centroid_angle_signature(
    const Contour& contour, std::size_t samples = kDefaultSignatureSize);

/// Rescales the contour so its bounding box becomes a square of the given
/// side. This cancels the vertical foreshortening induced by the drone's
/// depression angle (altitude/distance geometry), which otherwise dominates
/// the signature variation across the paper's 2-5 m altitude band.
/// A no-op for empty or degenerate (zero-extent) contours.
[[nodiscard]] Contour normalize_contour_aspect(const Contour& contour,
                                               double side = 100.0);

// Buffer-reusing overloads for the streaming pipeline; bit-identical to the
// allocating versions, which delegate here. Outputs must not alias inputs.

/// centroid_distance_signature into `out`; `resample_scratch` holds the
/// arc-length-resampled contour.
void centroid_distance_signature_into(const Contour& contour, std::size_t samples,
                                      hdc::timeseries::Series& out,
                                      Contour& resample_scratch);

/// normalize_contour_aspect into `out` (degenerate input is copied verbatim,
/// matching the allocating version's pass-through).
void normalize_contour_aspect_into(const Contour& contour, double side,
                                   Contour& out);

}  // namespace hdc::imaging
