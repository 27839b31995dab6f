// Connected-component labelling of binary images (8-connectivity) and the
// largest-component extractor that isolates the signaller silhouette from
// background clutter.
//
// One kernel: run-based two-scan labelling on the packed BitImage (He, Chao
// & Suzuki, IEEE TIP 2008). Each row's foreground runs come from
// count-trailing-zeros over its words; union-find joins runs of adjacent
// rows that overlap under 8-connectivity; components are numbered in raster
// order of their first pixel. The BinaryImage entry points pack, run that
// kernel and, where asked, paint the runs back out.
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

/// Result of labelling: a label raster (0 = background, 1..n components) and
/// per-component statistics.
struct Labeling {
  Image<std::int32_t> labels;
  std::vector<Component> components;  ///< indexed by label-1
};

/// 8-connectivity labelling; only kForeground pixels are foreground.
/// Labels run 1..n in raster order of each component's first pixel.
[[nodiscard]] Labeling label_components(const BinaryImage& binary);

/// Returns a binary mask of the largest component (empty image -> all
/// background). Components below `min_area` pixels are ignored; if none
/// qualify the mask is all background.
[[nodiscard]] BinaryImage largest_component_mask(const BinaryImage& binary,
                                                 std::size_t min_area = 1);

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
  BitImage packed;                      ///< BinaryImage entry points: packed input
  BitImage packed_mask;                 ///< BinaryImage entry points: packed mask
};

/// Packed labelling: fills `components` exactly as label_components would
/// (same numbering and statistics) without building a label raster.
void label_components_into(const BitImage& bits, std::vector<Component>& components,
                           LabelScratch& scratch);

/// Packed largest-component mask: `mask` holds the first component in label
/// order with the largest area >= `min_area` (all background if none
/// qualifies). `components` receives every component, as above.
void largest_component_mask_into(const BitImage& bits, std::size_t min_area,
                                 BitImage& mask, std::vector<Component>& components,
                                 LabelScratch& scratch);

/// label_components into a caller-owned Labeling; identical to the
/// allocating version, which delegates here.
void label_components_into(const BinaryImage& binary, Labeling& out,
                           LabelScratch& scratch);

/// largest_component_mask into `mask`. Fills `labeling.components` with
/// every component; `labeling.labels` is left empty (no label raster is
/// built).
void largest_component_mask_into(const BinaryImage& binary, std::size_t min_area,
                                 BinaryImage& mask, Labeling& labeling,
                                 LabelScratch& scratch);

/// Removes every component smaller than `min_area` (despeckle).
[[nodiscard]] BinaryImage remove_small_components(const BinaryImage& binary,
                                                  std::size_t min_area);

}  // namespace hdc::imaging
