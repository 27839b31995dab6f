#include "imaging/contour.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <vector>

namespace hdc::imaging {

namespace {

/// Moore neighbourhood in clockwise order starting from west.
constexpr std::array<std::array<int, 2>, 8> kMooreOffsets = {{
    {-1, 0}, {-1, -1}, {0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1},
}};

}  // namespace

void trace_boundary_into(const BitImage& mask, Contour& contour) {
  contour.clear();
  // Find the first foreground pixel in raster order; its west neighbour is
  // guaranteed background, which seeds the backtrack direction.
  int start_x = -1, start_y = -1;
  const std::vector<std::uint64_t>& words = mask.words();
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i] == 0) continue;
    const auto per_row = static_cast<std::size_t>(mask.words_per_row());
    start_y = static_cast<int>(i / per_row);
    start_x = static_cast<int>(i % per_row) * 64 + std::countr_zero(words[i]);
    break;
  }
  if (start_x < 0) return;

  contour.emplace_back(start_x, start_y);

  // Isolated single pixel: its boundary is itself.
  bool has_neighbour = false;
  for (const auto& off : kMooreOffsets) {
    if (mask.test(start_x + off[0], start_y + off[1])) {
      has_neighbour = true;
      break;
    }
  }
  if (!has_neighbour) return;

  // Moore tracing with Jacob's stopping criterion. The backtrack is
  // tracked as the *position* of the background neighbour from which the
  // current pixel was entered; the neighbourhood is scanned clockwise
  // starting just past that backtrack. The trace terminates when the start
  // pixel is re-entered from the initial backtrack position.
  int px = start_x, py = start_y;
  int bx = start_x - 1, by = start_y;  // west neighbour: background by raster order
  const int initial_bx = bx, initial_by = by;

  const auto direction_of = [](int dx, int dy) {
    for (int d = 0; d < 8; ++d) {
      if (kMooreOffsets[static_cast<std::size_t>(d)][0] == dx &&
          kMooreOffsets[static_cast<std::size_t>(d)][1] == dy) {
        return d;
      }
    }
    return 0;  // unreachable for valid neighbour deltas
  };

  // Upper bound on steps guards against pathological masks.
  const std::size_t pixel_count =
      static_cast<std::size_t>(mask.width()) * static_cast<std::size_t>(mask.height());
  const std::size_t max_steps = pixel_count * 4 + 8;
  for (std::size_t step = 0; step < max_steps; ++step) {
    const int back_dir = direction_of(bx - px, by - py);
    int found_dir = -1;
    int last_bg_x = bx, last_bg_y = by;
    for (int i = 1; i <= 8; ++i) {
      const int dir = (back_dir + i) % 8;
      const int nx = px + kMooreOffsets[static_cast<std::size_t>(dir)][0];
      const int ny = py + kMooreOffsets[static_cast<std::size_t>(dir)][1];
      if (mask.test(nx, ny)) {
        found_dir = dir;
        break;
      }
      last_bg_x = nx;
      last_bg_y = ny;
    }
    if (found_dir < 0) break;  // defensive; cannot happen for has_neighbour

    px += kMooreOffsets[static_cast<std::size_t>(found_dir)][0];
    py += kMooreOffsets[static_cast<std::size_t>(found_dir)][1];
    bx = last_bg_x;
    by = last_bg_y;

    // Jacob's criterion: back at the start, entered from the same side.
    if (px == start_x && py == start_y && bx == initial_bx && by == initial_by) {
      break;
    }
    contour.emplace_back(px, py);
  }

  // The loop may append the start pixel again as the final step; drop it.
  if (contour.size() > 1 && contour.back() == contour.front()) contour.pop_back();
}

// Perfbench only, goes after ROADMAP item 1.
void trace_boundary_into(const BinaryImage& mask, Contour& contour) {
  if (mask.empty()) {
    contour.clear();
    return;
  }
  BitImage packed;
  pack(mask, packed);
  trace_boundary_into(packed, contour);
}

Vec2 contour_centroid(const Contour& contour) {
  if (contour.empty()) return {};
  Vec2 sum{};
  for (const Vec2& p : contour) sum += p;
  return sum / static_cast<double>(contour.size());
}

double contour_perimeter(const Contour& contour) {
  const std::size_t n = contour.size();
  if (n < 2) return 0.0;
  double length = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) length += contour[i].distance_to(contour[i + 1]);
  return length + contour[n - 1].distance_to(contour[0]);
}

double contour_area(const Contour& contour) {
  if (contour.size() < 3) return 0.0;
  double twice_area = 0.0;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    const Vec2& p = contour[i];
    const Vec2& q = contour[(i + 1) % contour.size()];
    twice_area += p.cross(q);
  }
  return std::abs(twice_area) * 0.5;
}

void resample_by_arc_length_into(const Contour& contour, std::size_t count,
                                 Contour& out) {
  out.clear();
  if (contour.empty() || count == 0) return;
  if (contour.size() == 1) {
    out.assign(count, contour.front());
    return;
  }

  // Each segment's length, taken once: lengths[i] runs from contour[i] to
  // the next point, the last segment closing back to contour[0]. They are
  // summed in contour_perimeter's order, so `total` has its bits. The buffer
  // is per thread and keeps its capacity (allocation-free once warm).
  const std::size_t n = contour.size();
  thread_local std::vector<double> lengths;
  lengths.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    lengths[i] = contour[i].distance_to(contour[i + 1]);
    total += lengths[i];
  }
  lengths[n - 1] = contour[n - 1].distance_to(contour[0]);
  total += lengths[n - 1];
  if (total <= 0.0) {
    out.assign(count, contour.front());
    return;
  }

  out.reserve(count);
  const double step = total / static_cast<double>(count);

  double target = 0.0;    // arc position of the next output sample
  double walked = 0.0;    // arc length consumed so far
  std::size_t seg = 0;    // segments walked past; the walk may reach seg == n
  std::size_t at = 0;     // seg % n: the current segment starts at contour[at]
  double seg_len = lengths[0];

  for (std::size_t i = 0; i < count; ++i, target += step) {
    while (walked + seg_len < target && seg < n) {
      walked += seg_len;
      ++seg;
      if (++at == n) at = 0;
      seg_len = lengths[at];
    }
    const Vec2& seg_a = contour[at];
    const Vec2& seg_b = contour[at + 1 == n ? 0 : at + 1];
    const double remain = target - walked;
    const double t = seg_len > 0.0 ? remain / seg_len : 0.0;
    out.push_back(seg_a + (seg_b - seg_a) * t);
  }
}

Contour resample_by_arc_length(const Contour& contour, std::size_t count) {
  Contour out;
  resample_by_arc_length_into(contour, count, out);
  return out;
}

}  // namespace hdc::imaging
