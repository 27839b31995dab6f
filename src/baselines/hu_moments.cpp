#include "baselines/hu_moments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace hdc::baselines {

namespace {

/// Log-compresses a Hu invariant (the customary comparison space: the raw
/// invariants span many orders of magnitude).
[[nodiscard]] double log_scale(double value) {
  if (value == 0.0) return 0.0;
  return -std::copysign(std::log10(std::abs(value)), value);
}

[[nodiscard]] double feature_distance(const std::array<double, 7>& a,
                                      const std::array<double, 7>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < 7; ++i) {
    const double d = log_scale(a[i]) - log_scale(b[i]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace

std::array<double, 7> hu_moments(const imaging::BitImage& mask) {
  // Raw moments m_pq over foreground pixels.
  double m00 = 0, m10 = 0, m01 = 0;
  imaging::for_each_foreground(mask, [&](int x, int y) {
    m00 += 1.0;
    m10 += x;
    m01 += y;
  });
  if (m00 == 0.0) return {};
  const double cx = m10 / m00;
  const double cy = m01 / m00;

  // Central moments mu_pq up to order 3.
  double mu20 = 0, mu02 = 0, mu11 = 0, mu30 = 0, mu03 = 0, mu21 = 0, mu12 = 0;
  imaging::for_each_foreground(mask, [&](int x, int y) {
    const double dx = x - cx;
    const double dy = y - cy;
    mu20 += dx * dx;
    mu02 += dy * dy;
    mu11 += dx * dy;
    mu30 += dx * dx * dx;
    mu03 += dy * dy * dy;
    mu21 += dx * dx * dy;
    mu12 += dx * dy * dy;
  });

  // Scale-normalised moments eta_pq = mu_pq / m00^(1 + (p+q)/2).
  const auto eta = [m00](double mu, int order) {
    return mu / std::pow(m00, 1.0 + order / 2.0);
  };
  const double n20 = eta(mu20, 2), n02 = eta(mu02, 2), n11 = eta(mu11, 2);
  const double n30 = eta(mu30, 3), n03 = eta(mu03, 3), n21 = eta(mu21, 3),
               n12 = eta(mu12, 3);

  std::array<double, 7> hu{};
  hu[0] = n20 + n02;
  hu[1] = (n20 - n02) * (n20 - n02) + 4.0 * n11 * n11;
  hu[2] = (n30 - 3 * n12) * (n30 - 3 * n12) + (3 * n21 - n03) * (3 * n21 - n03);
  hu[3] = (n30 + n12) * (n30 + n12) + (n21 + n03) * (n21 + n03);
  hu[4] = (n30 - 3 * n12) * (n30 + n12) *
              ((n30 + n12) * (n30 + n12) - 3 * (n21 + n03) * (n21 + n03)) +
          (3 * n21 - n03) * (n21 + n03) *
              (3 * (n30 + n12) * (n30 + n12) - (n21 + n03) * (n21 + n03));
  hu[5] = (n20 - n02) * ((n30 + n12) * (n30 + n12) - (n21 + n03) * (n21 + n03)) +
          4.0 * n11 * (n30 + n12) * (n21 + n03);
  hu[6] = (3 * n21 - n03) * (n30 + n12) *
              ((n30 + n12) * (n30 + n12) - 3 * (n21 + n03) * (n21 + n03)) -
          (n30 - 3 * n12) * (n21 + n03) *
              (3 * (n30 + n12) * (n30 + n12) - (n21 + n03) * (n21 + n03));
  return hu;
}

void HuMomentsRecognizer::train(const signs::ViewGeometry& view,
                                const signs::RenderOptions& options) {
  templates_.clear();
  for (const signs::HumanSign sign : signs::kAllSigns) {
    const imaging::GrayImage frame = signs::render_sign(sign, view, options);
    templates_.push_back({sign, hu_moments(extract_silhouette(frame))});
  }
}

BaselineResult HuMomentsRecognizer::classify(const imaging::GrayImage& frame) const {
  BaselineResult result;
  const imaging::BitImage& mask = extract_silhouette(frame);
  const bool any = std::ranges::any_of(mask.words(), [](std::uint64_t w) { return w != 0; });
  if (!any || templates_.empty()) return result;

  const std::array<double, 7> features = hu_moments(mask);
  double best = std::numeric_limits<double>::infinity();
  double second = best;
  for (const Template& t : templates_) {
    const double d = feature_distance(features, t.features);
    if (d < best) {
      second = best;
      best = d;
      result.sign = t.sign;
    } else if (d < second) {
      second = d;
    }
  }
  result.valid = true;
  result.distance = best;
  result.margin = second == std::numeric_limits<double>::infinity() ? best : second - best;
  return result;
}

}  // namespace hdc::baselines
