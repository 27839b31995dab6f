// Binary morphology (square structuring element). Used to clean silhouettes
// before contour tracing: opening removes salt noise, closing bridges small
// gaps between limb segments.
//
// One kernel, on the packed BitImage: a 3x3 erode / dilate run as two flat
// passes over the whole word array — word shifts with carries between
// neighbouring words, then an AND (erode) / OR (dilate) with the rows above
// and below — and radius r as r rounds of it. The BinaryImage overloads
// pack, run that kernel and unpack; only kForeground counts as foreground
// there.
#pragma once

#include "imaging/bit_image.hpp"
#include "imaging/image.hpp"

namespace hdc::imaging {

/// Erosion with a (2r+1)x(2r+1) square element; pixels outside the raster
/// count as background.
[[nodiscard]] BinaryImage erode(const BinaryImage& src, int radius = 1);

/// Dilation with a (2r+1)x(2r+1) square element.
[[nodiscard]] BinaryImage dilate(const BinaryImage& src, int radius = 1);

/// Opening: erode then dilate (removes specks smaller than the element).
[[nodiscard]] BinaryImage open(const BinaryImage& src, int radius = 1);

/// Closing: dilate then erode (fills holes/gaps smaller than the element).
[[nodiscard]] BinaryImage close(const BinaryImage& src, int radius = 1);

// Packed kernels for the streaming pipeline: allocation-free once the
// buffers are warm. `out` and the scratch rasters must be distinct objects
// and must not alias `src`.

/// erode into `out`; `scratch` holds the horizontal pass.
void erode_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch);

/// dilate into `out`; `scratch` holds the horizontal pass.
void dilate_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch);

/// open into `out` (erode then dilate).
void open_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch_a,
               BitImage& scratch_b);

/// close into `out` (dilate then erode).
void close_into(const BitImage& src, int radius, BitImage& out, BitImage& scratch_a,
                BitImage& scratch_b);

// BinaryImage adaptors over the packed kernels (pack -> kernel -> unpack);
// the allocating versions above delegate here. The byte scratch arguments
// are unused and kept for source compatibility. `out` must not alias `src`.

void erode_into(const BinaryImage& src, int radius, BinaryImage& out,
                BinaryImage& scratch);
void dilate_into(const BinaryImage& src, int radius, BinaryImage& out,
                 BinaryImage& scratch);
void open_into(const BinaryImage& src, int radius, BinaryImage& out,
               BinaryImage& scratch_a, BinaryImage& scratch_b);
void close_into(const BinaryImage& src, int radius, BinaryImage& out,
                BinaryImage& scratch_a, BinaryImage& scratch_b);

/// Number of foreground pixels.
[[nodiscard]] std::size_t foreground_area(const BinaryImage& src);

}  // namespace hdc::imaging
