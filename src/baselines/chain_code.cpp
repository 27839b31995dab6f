#include "baselines/chain_code.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "imaging/contour.hpp"

namespace hdc::baselines {

namespace {

/// Chi-square distance between histograms (standard for frequency features).
[[nodiscard]] double chi_square(const std::array<double, 8>& a,
                                const std::array<double, 8>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double total = a[i] + b[i];
    if (total > 0.0) {
      const double diff = a[i] - b[i];
      sum += diff * diff / total;
    }
  }
  return sum;
}

/// Outer contour of a frame's silhouette.
[[nodiscard]] imaging::Contour silhouette_contour(const imaging::GrayImage& frame) {
  imaging::Contour contour;
  imaging::trace_boundary_into(extract_silhouette(frame), contour);
  return contour;
}

}  // namespace

std::vector<int> freeman_chain_code(const imaging::Contour& contour) {
  // Direction indices: 0=E, 1=NE, 2=N, ... counter-clockwise in a y-up
  // frame; image y grows downward so dy is negated.
  std::vector<int> code;
  if (contour.size() < 2) return code;
  code.reserve(contour.size());
  for (std::size_t i = 0; i < contour.size(); ++i) {
    const auto& p = contour[i];
    const auto& q = contour[(i + 1) % contour.size()];
    const int dx = static_cast<int>(std::lround(q.x - p.x));
    const int dy = static_cast<int>(std::lround(q.y - p.y));
    if (dx == 0 && dy == 0) continue;
    const double angle = std::atan2(static_cast<double>(-dy), static_cast<double>(dx));
    int dir = static_cast<int>(std::lround(angle / (std::numbers::pi / 4.0)));
    dir = ((dir % 8) + 8) % 8;
    code.push_back(dir);
  }
  return code;
}

std::array<double, 8> curvature_histogram(const std::vector<int>& code) {
  std::array<double, 8> histogram{};
  if (code.size() < 2) return histogram;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const int delta = ((code[(i + 1) % code.size()] - code[i]) % 8 + 8) % 8;
    histogram[static_cast<std::size_t>(delta)] += 1.0;
  }
  for (double& bin : histogram) bin /= static_cast<double>(code.size());
  return histogram;
}

void ChainCodeRecognizer::train(const signs::ViewGeometry& view,
                                const signs::RenderOptions& options) {
  templates_.clear();
  for (const signs::HumanSign sign : signs::kAllSigns) {
    const imaging::GrayImage frame = signs::render_sign(sign, view, options);
    const imaging::Contour contour = silhouette_contour(frame);
    templates_.push_back({sign, curvature_histogram(freeman_chain_code(contour))});
  }
}

BaselineResult ChainCodeRecognizer::classify(const imaging::GrayImage& frame) const {
  BaselineResult result;
  const imaging::Contour contour = silhouette_contour(frame);
  if (contour.size() < 8 || templates_.empty()) return result;

  const std::array<double, 8> histogram =
      curvature_histogram(freeman_chain_code(contour));
  double best = std::numeric_limits<double>::infinity();
  double second = best;
  for (const Template& t : templates_) {
    const double d = chi_square(histogram, t.histogram);
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
