// Boundary extraction: Moore-neighbour contour tracing with Jacob's stopping
// criterion. The outer contour of the signaller silhouette is the shape the
// paper converts into a time series.
#pragma once

#include <vector>

#include "imaging/bit_image.hpp"
#include "imaging/image.hpp"
#include "util/geometry.hpp"

namespace hdc::imaging {

using hdc::util::Vec2;

/// A traced boundary: ordered pixel positions (clockwise in image
/// coordinates, i.e. counter-clockwise in a y-up frame).
using Contour = std::vector<Vec2>;

/// Traces the outer boundary of the first foreground region found in raster
/// scan order. Returns an empty contour when the image has no foreground.
/// The trace follows 8-connected Moore neighbours; only kForeground pixels
/// are foreground.
[[nodiscard]] Contour trace_boundary(const BinaryImage& mask);

/// Centroid of a contour (mean of boundary points); (0,0) for empty input.
[[nodiscard]] Vec2 contour_centroid(const Contour& contour);

/// Total polygonal length of the (closed) contour.
[[nodiscard]] double contour_perimeter(const Contour& contour);

/// Area enclosed by the (closed) contour via the shoelace formula
/// (absolute value).
[[nodiscard]] double contour_area(const Contour& contour);

/// Resamples the closed contour to `count` points equally spaced by arc
/// length. Required so the signature is invariant to boundary pixel density.
[[nodiscard]] Contour resample_by_arc_length(const Contour& contour, std::size_t count);

// Buffer-reusing overloads for the streaming pipeline; bit-identical to the
// allocating versions, which delegate here. `out` must not alias the input.

/// trace_boundary on a packed mask into `out` (cleared, capacity kept); the
/// one tracer — neighbour tests are bit tests.
void trace_boundary_into(const BitImage& mask, Contour& out);

/// trace_boundary into `out`: packs `mask`, then traces it as above.
void trace_boundary_into(const BinaryImage& mask, Contour& out);

/// resample_by_arc_length into `out` (cleared, capacity kept).
void resample_by_arc_length_into(const Contour& contour, std::size_t count,
                                 Contour& out);

}  // namespace hdc::imaging
