#include "baselines/baseline.hpp"

#include <vector>

#include "imaging/components.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"

namespace hdc::baselines {

const imaging::BitImage& extract_silhouette(const imaging::GrayImage& frame,
                                            std::size_t min_area) {
  // Per-thread buffers, grown once and reused by every later call.
  struct Scratch {
    imaging::BitImage bits, closed, scratch_a, scratch_b, mask;
    std::vector<imaging::Component> components;
    imaging::LabelScratch labels;
  };
  thread_local Scratch s;
  imaging::otsu_threshold_dark_into(frame, s.bits);
  imaging::close_into(s.bits, 1, s.closed, s.scratch_a, s.scratch_b);
  imaging::open_into(s.closed, 1, s.bits, s.scratch_a, s.scratch_b);
  imaging::largest_component_mask_into(s.bits, min_area, s.mask, s.components, s.labels);
  return s.mask;
}

}  // namespace hdc::baselines
