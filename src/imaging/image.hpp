// Raster image types for the vision substrate.
//
// The pipeline works on 8-bit grayscale frames (what a low-cost drone camera
// delivers after luma extraction); RGB images exist for example/debug output
// only. Row-major storage, origin top-left, u right / v down.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hdc::imaging {

/// 8-bit RGB pixel for visualisation output.
struct Rgb {
  std::uint8_t r{0};
  std::uint8_t g{0};
  std::uint8_t b{0};
  constexpr bool operator==(const Rgb&) const = default;
};

/// Rectangular raster of pixels of type T (row-major).
template <typename T>
class Image {
 public:
  Image() = default;

  Image(int width, int height, T fill_value = T{})
      : width_(width), height_(height) {
    if (width <= 0 || height <= 0) {
      throw std::invalid_argument("Image: dimensions must be positive");
    }
    pixels_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
                   fill_value);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }
  [[nodiscard]] std::size_t pixel_count() const noexcept { return pixels_.size(); }

  [[nodiscard]] bool in_bounds(int x, int y) const noexcept {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  [[nodiscard]] T& at(int x, int y) {
    check_bounds(x, y);
    return pixels_[index(x, y)];
  }
  [[nodiscard]] const T& at(int x, int y) const {
    check_bounds(x, y);
    return pixels_[index(x, y)];
  }

  /// Unchecked access for hot loops; callers must guarantee bounds.
  [[nodiscard]] T& operator()(int x, int y) noexcept { return pixels_[index(x, y)]; }
  [[nodiscard]] const T& operator()(int x, int y) const noexcept {
    return pixels_[index(x, y)];
  }

  /// Reads with clamp-to-edge semantics (useful for filters).
  [[nodiscard]] const T& clamped(int x, int y) const noexcept {
    const int cx = std::clamp(x, 0, width_ - 1);
    const int cy = std::clamp(y, 0, height_ - 1);
    return pixels_[index(cx, cy)];
  }

  /// Writes only if (x, y) is inside the raster.
  void set_if_inside(int x, int y, T value) noexcept {
    if (in_bounds(x, y)) pixels_[index(x, y)] = value;
  }

  void fill(T value) { std::fill(pixels_.begin(), pixels_.end(), value); }

  /// Reshapes to width x height and resets every pixel to `fill_value`,
  /// reusing the existing heap block whenever its capacity suffices. This is
  /// what makes the streaming pipeline's scratch buffers allocation-free after
  /// warm-up.
  void reset(int width, int height, T fill_value = T{}) {
    if (width <= 0 || height <= 0) {
      throw std::invalid_argument("Image::reset: dimensions must be positive");
    }
    width_ = width;
    height_ = height;
    pixels_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
                   fill_value);
  }

  [[nodiscard]] std::vector<T>& data() noexcept { return pixels_; }
  [[nodiscard]] const std::vector<T>& data() const noexcept { return pixels_; }

  [[nodiscard]] bool operator==(const Image& other) const {
    return width_ == other.width_ && height_ == other.height_ &&
           pixels_ == other.pixels_;
  }

 private:
  [[nodiscard]] std::size_t index(int x, int y) const noexcept {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }
  void check_bounds(int x, int y) const {
    if (!in_bounds(x, y)) throw std::out_of_range("Image::at: out of bounds");
  }

  int width_{0};
  int height_{0};
  std::vector<T> pixels_;
};

using GrayImage = Image<std::uint8_t>;
using BinaryImage = Image<std::uint8_t>;  ///< convention: 0 background, 255 foreground
using RgbImage = Image<Rgb>;

inline constexpr std::uint8_t kBackground = 0;
inline constexpr std::uint8_t kForeground = 255;

/// Converts RGB to 8-bit luma (Rec. 601 weights).
[[nodiscard]] GrayImage to_gray(const RgbImage& rgb);

/// Expands grayscale to RGB (for annotation overlays).
[[nodiscard]] RgbImage to_rgb(const GrayImage& gray);

/// Nearest-neighbour downscale by integer factor >= 1.
[[nodiscard]] GrayImage downscale(const GrayImage& src, int factor);

}  // namespace hdc::imaging
