#include "imaging/components.hpp"

#include <algorithm>
#include <bit>

namespace hdc::imaging {

namespace {

/// First pixel at or after `x` whose bit equals `value`, scanning the row's
/// `n` words; n * 64 when there is none. Foreground searches never stop in
/// the padding (its bits are zero); background searches stop at `width` or
/// at the end of the last word.
inline int next_bit(const std::uint64_t* row, int n, int x, bool value) {
  int i = x >> 6;
  if (i >= n) return n * 64;
  const std::uint64_t flip = value ? 0 : ~std::uint64_t{0};
  std::uint64_t word = (row[i] ^ flip) & (~std::uint64_t{0} << (x & 63));
  while (word == 0) {
    if (++i == n) return n * 64;
    word = row[i] ^ flip;
  }
  return i * 64 + std::countr_zero(word);
}

/// Root of run `i`. Parents always point to lower indices, so a root is the
/// first run of its component in raster order.
inline std::int32_t find_root(std::vector<std::int32_t>& parent, std::int32_t i) {
  while (parent[static_cast<std::size_t>(i)] != i) {
    auto& p = parent[static_cast<std::size_t>(i)];
    p = parent[static_cast<std::size_t>(p)];  // path halving
    i = p;
  }
  return i;
}

inline void unite(std::vector<std::int32_t>& parent, std::int32_t a, std::int32_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
}

/// Sets bits [x0, x1) of a packed row.
inline void set_span(std::uint64_t* row, int x0, int x1) {
  const int first = x0 >> 6;
  const int last = (x1 - 1) >> 6;
  const std::uint64_t head = ~std::uint64_t{0} << (x0 & 63);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((x1 - 1) & 63));
  if (first == last) {
    row[first] |= head & tail;
    return;
  }
  row[first] |= head;
  for (int i = first + 1; i < last; ++i) row[i] = ~std::uint64_t{0};
  row[last] |= tail;
}

/// Index of the first component in label order with the largest area
/// >= `min_area`, or -1.
std::int32_t largest_index(const std::vector<Component>& components, std::size_t min_area) {
  std::int32_t best = -1;
  for (std::size_t i = 0; i < components.size(); ++i) {
    const std::size_t area = components[i].area;
    if (area >= min_area &&
        (best < 0 || area > components[static_cast<std::size_t>(best)].area)) {
      best = static_cast<std::int32_t>(i);
    }
  }
  return best;
}

}  // namespace

void label_components_into(const BitImage& bits, std::vector<Component>& components,
                           LabelScratch& scratch) {
  std::vector<Run>& runs = scratch.runs;
  std::vector<std::int32_t>& label = scratch.run_label;
  runs.clear();
  label.clear();
  components.clear();
  const int n = bits.words_per_row();

  // Scan 1: runs per row, each united with the runs of the row above that
  // it touches under 8-connectivity ([a0, a1) and [b0, b1) touch when
  // a0 <= b1 and b0 <= a1).
  std::size_t above_begin = 0;
  std::size_t above_end = 0;
  for (int y = 0; y < bits.height(); ++y) {
    const std::uint64_t* row = bits.row(y);
    const std::size_t row_begin = runs.size();
    std::size_t above = above_begin;
    for (int x0 = next_bit(row, n, 0, true); x0 < n * 64;
         x0 = next_bit(row, n, runs.back().x1, true)) {
      const int x1 = next_bit(row, n, x0, false);
      const auto index = static_cast<std::int32_t>(runs.size());
      runs.push_back(Run{y, x0, x1});
      label.push_back(index);
      while (above < above_end && runs[above].x1 < x0) ++above;
      for (std::size_t j = above; j < above_end && runs[j].x0 <= x1; ++j) {
        unite(label, index, static_cast<std::int32_t>(j));
      }
    }
    above_begin = row_begin;
    above_end = runs.size();
  }

  // Scan 2: replace each parent by its component index. A root is met
  // before every other run of its component and starts the next component;
  // any other run's parent has a lower index, already replaced by then.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    std::int32_t& slot = label[i];
    if (slot == static_cast<std::int32_t>(i)) {
      slot = static_cast<std::int32_t>(components.size());
      components.push_back(Component{slot + 1, 0, run.x0, run.y, run.x0, run.y, {}});
    } else {
      slot = label[static_cast<std::size_t>(slot)];
    }
    Component& comp = components[static_cast<std::size_t>(slot)];
    const auto length = static_cast<std::int64_t>(run.x1 - run.x0);
    comp.area += static_cast<std::size_t>(length);
    comp.min_x = std::min(comp.min_x, run.x0);
    comp.max_x = std::max(comp.max_x, run.x1 - 1);
    comp.max_y = run.y;
    // Integer sums are exact in a double, so the centroid equals the
    // pixel-by-pixel sum over the same pixels.
    comp.centroid.x += static_cast<double>((run.x0 + run.x1 - 1) * length / 2);
    comp.centroid.y += static_cast<double>(run.y * length);
  }
  for (Component& comp : components) {
    comp.centroid.x /= static_cast<double>(comp.area);
    comp.centroid.y /= static_cast<double>(comp.area);
  }
}

void largest_component_mask_into(const BitImage& bits, std::size_t min_area,
                                 BitImage& mask, std::vector<Component>& components,
                                 LabelScratch& scratch) {
  label_components_into(bits, components, scratch);
  mask.reset(bits.width(), bits.height());
  const std::int32_t target = largest_index(components, min_area);
  if (target < 0) return;
  for (std::size_t i = 0; i < scratch.runs.size(); ++i) {
    if (scratch.run_label[i] != target) continue;
    const Run& run = scratch.runs[i];
    set_span(mask.row(run.y), run.x0, run.x1);
  }
}

void label_components_into(const BinaryImage& binary, Labeling& out,
                           LabelScratch& scratch) {
  pack(binary, scratch.packed);
  label_components_into(scratch.packed, out.components, scratch);
  out.labels.reset(binary.width(), binary.height(), 0);
  for (std::size_t i = 0; i < scratch.runs.size(); ++i) {
    const Run& run = scratch.runs[i];
    std::int32_t* row = &out.labels(0, run.y);
    std::fill(row + run.x0, row + run.x1, scratch.run_label[i] + 1);
  }
}

Labeling label_components(const BinaryImage& binary) {
  Labeling result;
  LabelScratch scratch;
  label_components_into(binary, result, scratch);
  return result;
}

void largest_component_mask_into(const BinaryImage& binary, std::size_t min_area,
                                 BinaryImage& mask, Labeling& labeling,
                                 LabelScratch& scratch) {
  pack(binary, scratch.packed);
  largest_component_mask_into(scratch.packed, min_area, scratch.packed_mask,
                              labeling.components, scratch);
  labeling.labels = {};
  unpack(scratch.packed_mask, mask);
}

BinaryImage largest_component_mask(const BinaryImage& binary, std::size_t min_area) {
  BinaryImage mask;
  Labeling labeling;
  LabelScratch scratch;
  largest_component_mask_into(binary, min_area, mask, labeling, scratch);
  return mask;
}

BinaryImage remove_small_components(const BinaryImage& binary, std::size_t min_area) {
  const Labeling labeling = label_components(binary);
  BinaryImage out(binary.width(), binary.height(), kBackground);
  // keep[label] is 0x00/0xFF per component size; the fill is then a pure
  // table gather over the label raster, no per-pixel branching.
  std::vector<std::uint8_t> keep(labeling.components.size() + 1, kBackground);
  for (const Component& comp : labeling.components) {
    if (comp.area >= min_area) {
      keep[static_cast<std::size_t>(comp.label)] = kForeground;
    }
  }
  const std::int32_t* lab = labeling.labels.data().data();
  std::uint8_t* dst = out.data().data();
  const std::size_t count = out.data().size();
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = keep[static_cast<std::size_t>(lab[i])];
  }
  return out;
}

}  // namespace hdc::imaging
