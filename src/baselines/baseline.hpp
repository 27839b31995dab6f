// Baseline recognisers the paper implicitly compares against (§I contrasts
// its cheap SAX approach with "interesting algorithmic techniques like
// neural networks and/or relatively expensive ... sensory systems").
//
// Three classical alternatives at comparable implementation cost:
//   - Hu invariant moments of the silhouette
//   - Freeman chain-code curvature histograms of the contour
//   - direct template correlation of the normalised silhouette raster
// All run the SAX pipeline's own packed silhouette front end (threshold,
// morphology and largest component on a BitImage), so the comparison
// isolates the *representation and matching* stage (bench ABL-2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "imaging/bit_image.hpp"
#include "imaging/contour.hpp"
#include "imaging/image.hpp"
#include "signs/scene.hpp"
#include "signs/sign.hpp"

namespace hdc::baselines {

/// Silhouette front end shared by every baseline: dark-foreground Otsu ->
/// close/open (radius 1) -> largest component, on the packed raster. The
/// SAX pipeline's stages 1-4 with blur off, run by the same kernels.
[[nodiscard]] imaging::BitImage extract_silhouette(const imaging::GrayImage& frame,
                                                   std::size_t min_area = 120);

/// Classification outcome of a baseline recogniser.
struct BaselineResult {
  bool valid{false};  ///< false when no silhouette was found
  signs::HumanSign sign{signs::HumanSign::kNeutral};
  double distance{0.0};  ///< representation-specific distance to best template
  double margin{0.0};    ///< runner-up distance minus best
};

/// Interface for baseline recognisers (I.25: empty abstract interface).
class BaselineRecognizer {
 public:
  virtual ~BaselineRecognizer() = default;

  /// Learns one template per sign from canonical renders at `view`.
  virtual void train(const signs::ViewGeometry& view,
                     const signs::RenderOptions& options) = 0;

  /// Classifies one frame against the trained templates.
  [[nodiscard]] virtual BaselineResult classify(const imaging::GrayImage& frame) const = 0;

  /// Human-readable method name for bench tables.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace hdc::baselines
