// Binary morphology (square structuring element). Used to clean silhouettes
// before contour tracing: opening removes salt noise, closing bridges small
// gaps between limb segments.
//
// Inputs must follow the BinaryImage convention (kBackground/kForeground
// only); the implementation exploits it with bitwise row combines, which is
// what keeps this stage — the pipeline's hottest — vectorisable.
#pragma once

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

// Buffer-reusing overloads for the streaming pipeline; bit-identical to the
// allocating versions above, which delegate here. `out` and `scratch` must
// be distinct objects and must not alias `src`.

/// erode into `out`; `scratch` holds the horizontal pass.
void erode_into(const BinaryImage& src, int radius, BinaryImage& out,
                BinaryImage& scratch);

/// dilate into `out`; `scratch` holds the horizontal pass.
void dilate_into(const BinaryImage& src, int radius, BinaryImage& out,
                 BinaryImage& scratch);

/// open into `out` (erode then dilate).
void open_into(const BinaryImage& src, int radius, BinaryImage& out,
               BinaryImage& scratch_a, BinaryImage& scratch_b);

/// close into `out` (dilate then erode).
void close_into(const BinaryImage& src, int radius, BinaryImage& out,
                BinaryImage& scratch_a, BinaryImage& scratch_b);

/// Number of foreground pixels.
[[nodiscard]] std::size_t foreground_area(const BinaryImage& src);

}  // namespace hdc::imaging
