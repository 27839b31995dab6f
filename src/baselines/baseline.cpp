#include "baselines/baseline.hpp"

#include "imaging/components.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"

namespace hdc::baselines {

imaging::BitImage extract_silhouette(const imaging::GrayImage& frame, std::size_t min_area) {
  imaging::BitImage bits, closed, scratch_a, scratch_b, mask;
  imaging::otsu_threshold_dark_into(frame, bits);
  imaging::close_into(bits, 1, closed, scratch_a, scratch_b);
  imaging::open_into(closed, 1, bits, scratch_a, scratch_b);
  std::vector<imaging::Component> components;
  imaging::LabelScratch label_scratch;
  imaging::largest_component_mask_into(bits, min_area, mask, components, label_scratch);
  return mask;
}

}  // namespace hdc::baselines
