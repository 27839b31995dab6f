// Connected-component labelling of binary images (8-connectivity) and the
// largest-component extractor that isolates the signaller silhouette from
// background clutter.
//
// One kernel: run-based two-scan labelling on the packed BitImage (He, Chao
// & Suzuki, IEEE TIP 2008). Each row's foreground runs come from
// count-trailing-zeros over its words; union-find joins runs of adjacent
// rows that overlap under 8-connectivity; components are numbered in raster
// order of their first pixel.
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/bit_image.hpp"
#include "imaging/image.hpp"
#include "util/geometry.hpp"

namespace hdc::imaging {

/// One labelled connected component.
struct Component {
  std::int32_t label{0};
  std::size_t area{0};
  int min_x{0}, min_y{0}, max_x{0}, max_y{0};
  hdc::util::Vec2 centroid{};
};

/// Perfbench only, goes after ROADMAP item 1: the component list of the byte
/// largest_component_mask_into, and the type of RecognizerScratch::labeling,
/// whose `components` perfbench reads.
struct Labeling {
  std::vector<Component> components;  ///< indexed by label-1
};

/// A horizontal run of foreground pixels: x in [x0, x1) on row y.
struct Run {
  int y{0};
  int x0{0};
  int x1{0};
};

/// Reusable arenas for the labelling passes. Keep one per worker; cleared,
/// not freed, between frames.
struct LabelScratch {
  std::vector<Run> runs;               ///< every run, in raster order
  std::vector<std::int32_t> run_label;  ///< union-find parent, then component index
  /// Perfbench only, goes after ROADMAP item 1: the byte
  /// largest_component_mask_into's packed input and mask.
  BitImage packed;
  BitImage packed_mask;
};

/// 8-connectivity labelling: fills `components`, numbered 1..n in raster
/// order of each component's first pixel. `scratch.runs` holds every
/// foreground run and `scratch.run_label[i]` the component index (label - 1)
/// of run i.
void label_components_into(const BitImage& bits, std::vector<Component>& components,
                           LabelScratch& scratch);

/// Packed largest-component mask: `mask` holds the first component in label
/// order with the largest area >= `min_area` (all background if none
/// qualifies). `components` receives every component, as above.
void largest_component_mask_into(const BitImage& bits, std::size_t min_area,
                                 BitImage& mask, std::vector<Component>& components,
                                 LabelScratch& scratch);

/// Perfbench only, goes after ROADMAP item 1: packs `binary`, runs the
/// packed largest_component_mask_into and unpacks the mask into `mask`;
/// `labeling.components` receives every component. Only kForeground bytes
/// count as foreground.
void largest_component_mask_into(const BinaryImage& binary, std::size_t min_area,
                                 BinaryImage& mask, Labeling& labeling,
                                 LabelScratch& scratch);

}  // namespace hdc::imaging
