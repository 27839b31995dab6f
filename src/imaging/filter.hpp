// Image filters: blur, thresholding (fixed and Otsu) and pixel-wise ops.
// These are the pre-processing steps of the recognition pipeline ("the
// pre-processing of the image ... initially appears expensive", paper §IV).
#pragma once

#include "imaging/bit_image.hpp"
#include "imaging/image.hpp"
#include "util/rng.hpp"

namespace hdc::imaging {

/// Separable box blur with window (2*radius+1); radius 0 returns the input.
[[nodiscard]] GrayImage box_blur(const GrayImage& src, int radius);

/// Gaussian blur approximated by three successive box blurs (standard
/// technique; error vs true Gaussian < 3% per Kovesi). sigma <= 0 returns
/// the input.
[[nodiscard]] GrayImage gaussian_blur(const GrayImage& src, double sigma);

/// Fixed-threshold binarisation: pixel >= threshold -> kForeground.
[[nodiscard]] BinaryImage threshold(const GrayImage& src, std::uint8_t value);

/// Otsu's automatic threshold (maximises between-class variance).
/// Returns the chosen threshold via `chosen` when non-null.
[[nodiscard]] BinaryImage otsu_threshold(const GrayImage& src,
                                         std::uint8_t* chosen = nullptr);

/// Photometric inversion (255 - v).
[[nodiscard]] GrayImage invert(const GrayImage& src);

// Buffer-reusing overloads for the streaming pipeline. Each writes into `out`
// (resized in place, allocation-free once warm) and produces output
// bit-identical to its allocating counterpart, which delegates here.
// `out` (and any scratch) must not alias `src`.

/// box_blur into `out`; `scratch` holds the horizontal pass.
void box_blur_into(const GrayImage& src, int radius, GrayImage& out,
                   GrayImage& scratch);

/// gaussian_blur into `out`; `scratch` is ping-pong storage for the box
/// passes.
void gaussian_blur_into(const GrayImage& src, double sigma, GrayImage& out,
                        GrayImage& scratch);

/// threshold into `out`.
void threshold_into(const GrayImage& src, std::uint8_t value, BinaryImage& out);

/// otsu_threshold into `out`.
void otsu_threshold_into(const GrayImage& src, BinaryImage& out,
                         std::uint8_t* chosen = nullptr);

/// threshold into a packed raster: bit = (pixel >= value). Same decision
/// per pixel as the byte version.
void threshold_into(const GrayImage& src, std::uint8_t value, BitImage& out);

/// otsu_threshold into a packed raster; same level as the byte version.
void otsu_threshold_into(const GrayImage& src, BitImage& out,
                         std::uint8_t* chosen = nullptr);

/// otsu_threshold_into(invert(src)) without forming the inverted frame: the
/// same packed bits and the same level, for a foreground darker than its
/// background. One pass less than invert_into + otsu_threshold_into.
void otsu_threshold_dark_into(const GrayImage& src, BitImage& out,
                              std::uint8_t* chosen = nullptr);

/// invert into `out`.
void invert_into(const GrayImage& src, GrayImage& out);

/// Adds zero-mean Gaussian pixel noise with the given stddev (clamped to
/// [0, 255]). Models sensor noise for robustness tests.
[[nodiscard]] GrayImage add_gaussian_noise(const GrayImage& src, double stddev,
                                           hdc::util::Rng& rng);

/// Flips a `fraction` of pixels to pure black/white (salt-and-pepper),
/// modelling dead/hot pixels and compression artefacts.
[[nodiscard]] GrayImage add_salt_pepper(const GrayImage& src, double fraction,
                                        hdc::util::Rng& rng);

/// Multiplies intensities by `gain` and adds `bias` (clamped) — crude
/// global illumination change for lighting-robustness tests.
[[nodiscard]] GrayImage adjust_lighting(const GrayImage& src, double gain, double bias);

}  // namespace hdc::imaging
