// Hu invariant-moment recogniser: seven algebraic moment invariants of the
// silhouette, invariant to translation, scale and rotation. A standard
// classical-vision shape descriptor; cheap but coarse (global statistics
// lose the limb topology that distinguishes marshalling signs).
#pragma once

#include <array>

#include "baselines/baseline.hpp"

namespace hdc::baselines {

/// The seven Hu invariants of a packed mask.
[[nodiscard]] std::array<double, 7> hu_moments(const imaging::BitImage& mask);

class HuMomentsRecognizer final : public BaselineRecognizer {
 public:
  void train(const signs::ViewGeometry& view,
             const signs::RenderOptions& options) override;
  [[nodiscard]] BaselineResult classify(const imaging::GrayImage& frame) const override;
  [[nodiscard]] std::string name() const override { return "hu-moments"; }

 private:
  struct Template {
    signs::HumanSign sign;
    std::array<double, 7> features;
  };
  std::vector<Template> templates_;
};

}  // namespace hdc::baselines
