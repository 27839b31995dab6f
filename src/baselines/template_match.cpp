#include "baselines/template_match.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hdc::baselines {

namespace {

/// Normalised cross-correlation in [-1, 1] (1 = identical patterns).
[[nodiscard]] double ncc(const std::vector<double>& a, const std::vector<double>& b) {
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(a.size());
  mean_b /= static_cast<double>(a.size());
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace

std::vector<double> normalized_grid(const imaging::BitImage& mask) {
  int min_x = mask.width(), min_y = mask.height(), max_x = -1, max_y = -1;
  imaging::for_each_foreground(mask, [&](int x, int y) {
    min_x = std::min(min_x, x);
    min_y = std::min(min_y, y);
    max_x = std::max(max_x, x);
    max_y = std::max(max_y, y);
  });
  std::vector<double> grid(static_cast<std::size_t>(kTemplateGrid) * kTemplateGrid, 0.0);
  if (max_x < min_x || max_y < min_y) return grid;
  const double scale_x = static_cast<double>(max_x - min_x + 1) / kTemplateGrid;
  const double scale_y = static_cast<double>(max_y - min_y + 1) / kTemplateGrid;
  for (int gy = 0; gy < kTemplateGrid; ++gy) {
    for (int gx = 0; gx < kTemplateGrid; ++gx) {
      const int sx = min_x + static_cast<int>((gx + 0.5) * scale_x);
      const int sy = min_y + static_cast<int>((gy + 0.5) * scale_y);
      if (mask.test(sx, sy)) {
        grid[static_cast<std::size_t>(gy) * kTemplateGrid + gx] = 1.0;
      }
    }
  }
  return grid;
}

void TemplateMatchRecognizer::train(const signs::ViewGeometry& view,
                                    const signs::RenderOptions& options) {
  templates_.clear();
  for (const signs::HumanSign sign : signs::kAllSigns) {
    const imaging::GrayImage frame = signs::render_sign(sign, view, options);
    templates_.push_back({sign, normalized_grid(extract_silhouette(frame))});
  }
}

BaselineResult TemplateMatchRecognizer::classify(const imaging::GrayImage& frame) const {
  BaselineResult result;
  if (templates_.empty()) return result;
  const std::vector<double> grid = normalized_grid(extract_silhouette(frame));
  bool any = false;
  for (double v : grid) {
    if (v > 0.0) {
      any = true;
      break;
    }
  }
  if (!any) return result;

  // NCC is a similarity; convert to a distance as (1 - ncc) for the shared
  // result contract.
  double best = std::numeric_limits<double>::infinity();
  double second = best;
  for (const Template& t : templates_) {
    const double d = 1.0 - ncc(grid, t.grid);
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
