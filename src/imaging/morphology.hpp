// Binary morphology (square structuring element). Used to clean silhouettes
// before contour tracing: opening removes salt noise, closing bridges small
// gaps between limb segments.
//
// One kernel, on the packed BitImage: a 3x3 erode / dilate run as two flat
// passes over the whole word array — word shifts with carries between
// neighbouring words, then an AND (erode) / OR (dilate) with the rows above
// and below — and radius r as r rounds of it.
#pragma once

#include "imaging/bit_image.hpp"
#include "imaging/image.hpp"

namespace hdc::imaging {

// Allocation-free once the buffers are warm. `out` and the scratch rasters
// must be distinct objects and must not alias `src`. Pixels outside the
// raster count as background.

/// Erosion with a (2r+1)x(2r+1) square element into `out`; `scratch` holds
/// the horizontal pass.
void erode_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch);

/// Dilation with a (2r+1)x(2r+1) square element into `out`; `scratch` holds
/// the horizontal pass.
void dilate_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch);

/// Opening into `out`: erode then dilate (removes specks smaller than the
/// element).
void open_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch_a,
               BitImage& scratch_b);

/// Closing into `out`: dilate then erode (fills holes and gaps smaller than
/// the element).
void close_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch_a,
                BitImage& scratch_b);

// Perfbench only, goes after ROADMAP item 1: byte adaptors (pack -> kernel
// -> unpack) for perfbench's layer probe. The byte scratch arguments are
// unused. `out` must not alias `src`. Library code and tests do not call
// them.

void open_into(const BinaryImage& src, int radius, BinaryImage& out,
               BinaryImage& scratch_a, BinaryImage& scratch_b);
void close_into(const BinaryImage& src, int radius, BinaryImage& out,
                BinaryImage& scratch_a, BinaryImage& scratch_b);

/// Number of foreground pixels.
[[nodiscard]] std::size_t foreground_area(const BinaryImage& src);

}  // namespace hdc::imaging
