// Direct template correlation: the silhouette is cropped to its bounding
// box, resampled to a fixed grid and compared to sign templates by
// normalised cross-correlation. Simple and accurate head-on, but with no
// rotation invariance at all — the naive baseline the SAX design argues
// against for a moving drone.
#pragma once

#include "baselines/baseline.hpp"

namespace hdc::baselines {

/// Fixed comparison grid (64x64 keeps the comparison sub-millisecond).
inline constexpr int kTemplateGrid = 64;

/// Crops `mask` to its foreground bounding box and resamples to the grid;
/// all-background masks produce an all-zero grid.
[[nodiscard]] std::vector<double> normalized_grid(const imaging::BitImage& mask);

class TemplateMatchRecognizer final : public BaselineRecognizer {
 public:
  void train(const signs::ViewGeometry& view,
             const signs::RenderOptions& options) override;
  [[nodiscard]] BaselineResult classify(const imaging::GrayImage& frame) const override;
  [[nodiscard]] std::string name() const override { return "template-ncc"; }

 private:
  struct Template {
    signs::HumanSign sign;
    std::vector<double> grid;
  };
  std::vector<Template> templates_;
};

}  // namespace hdc::baselines
