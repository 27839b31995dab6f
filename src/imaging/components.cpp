#include "imaging/components.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace hdc::imaging {

namespace {

/// Union-find over provisional labels, storing its parents in a
/// caller-owned arena so shard workers can reuse the allocation.
class DisjointSet {
 public:
  explicit DisjointSet(std::vector<std::int32_t>& parent) : parent_(parent) {
    parent_.clear();
  }
  std::int32_t make_set() {
    parent_.push_back(static_cast<std::int32_t>(parent_.size()));
    return parent_.back();
  }
  std::int32_t find(std::int32_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }

 private:
  std::vector<std::int32_t>& parent_;
};

/// First-nonzero-wins merge of the four already-visited 8-connectivity
/// neighbours, in the fixed W, NW, N, NE order (the order pins the label
/// numbering, so it must never change).
inline std::int32_t merge_neighbours(DisjointSet& sets, std::int32_t w,
                                     std::int32_t nw, std::int32_t n,
                                     std::int32_t ne) {
  std::int32_t label = w;
  if (nw != 0) {
    if (label == 0) label = nw;
    else sets.unite(label, nw);
  }
  if (n != 0) {
    if (label == 0) label = n;
    else sets.unite(label, n);
  }
  if (ne != 0) {
    if (label == 0) label = ne;
    else sets.unite(label, ne);
  }
  return label;
}

/// The next foreground pixel at or after `x` in a {0, 255} row, or `width`
/// when the rest of the row is background. memchr is the branch-light
/// (SIMD in libc) row scan — silhouette frames are mostly background, so
/// skipping runs wholesale is where the time goes. Bytes other than 255
/// are background, exactly like the `!= kForeground` test it replaces.
inline int next_foreground(const std::uint8_t* row, int x, int width) {
  const void* hit = std::memchr(row + x, kForeground,
                                static_cast<std::size_t>(width - x));
  if (hit == nullptr) return width;
  return static_cast<int>(static_cast<const std::uint8_t*>(hit) - row);
}

}  // namespace

void label_components_into(const BinaryImage& binary, Labeling& out,
                           LabelScratch& scratch) {
  out.labels.reset(binary.width(), binary.height(), 0);
  out.components.clear();
  const int w = binary.width();
  const int h = binary.height();
  const std::uint8_t* bin_data = binary.data().data();
  std::int32_t* lab_data = out.labels.data().data();
  const auto row_size = static_cast<std::size_t>(w);
  DisjointSet sets(scratch.parent);
  sets.make_set();  // slot 0 = background

  // Pass 1: provisional labels, merging across the W/NW/N/NE neighbours.
  // Row pointers replace per-pixel index math and bounds checks; the first
  // and last columns (where NW / NE fall off the raster) peel out of the
  // interior loop so it stays branch-light.
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* bin = bin_data + static_cast<std::size_t>(y) * row_size;
    std::int32_t* lab = lab_data + static_cast<std::size_t>(y) * row_size;
    const std::int32_t* up = lab - row_size;  // valid only for y > 0
    if (y == 0) {
      // Top row: the only visited neighbour is W.
      for (int x = next_foreground(bin, 0, w); x < w;
           x = next_foreground(bin, x + 1, w)) {
        const std::int32_t west = x > 0 ? lab[x - 1] : 0;
        lab[x] = west != 0 ? west : sets.make_set();
      }
      continue;
    }
    for (int x = next_foreground(bin, 0, w); x < w;
         x = next_foreground(bin, x + 1, w)) {
      const std::int32_t west = x > 0 ? lab[x - 1] : 0;
      const std::int32_t north_west = x > 0 ? up[x - 1] : 0;
      const std::int32_t north = up[x];
      const std::int32_t north_east = x + 1 < w ? up[x + 1] : 0;
      const std::int32_t label =
          merge_neighbours(sets, west, north_west, north, north_east);
      lab[x] = label != 0 ? label : sets.make_set();
    }
  }

  // Pass 2: flatten labels to 1..n and gather statistics, again skipping
  // background runs via the binary raster (nonzero labels sit exactly on
  // foreground pixels).
  std::vector<std::int32_t>& remap = scratch.remap;  // root -> compact label
  remap.clear();
  std::vector<Component>& comps = out.components;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* bin = bin_data + static_cast<std::size_t>(y) * row_size;
    std::int32_t* lab = lab_data + static_cast<std::size_t>(y) * row_size;
    for (int x = next_foreground(bin, 0, w); x < w;
         x = next_foreground(bin, x + 1, w)) {
      const std::int32_t root = sets.find(lab[x]);
      if (static_cast<std::size_t>(root) >= remap.size()) {
        remap.resize(static_cast<std::size_t>(root) + 1, 0);
      }
      if (remap[static_cast<std::size_t>(root)] == 0) {
        remap[static_cast<std::size_t>(root)] =
            static_cast<std::int32_t>(comps.size()) + 1;
        comps.push_back(Component{static_cast<std::int32_t>(comps.size()) + 1, 0, x, y,
                                  x, y, {}});
      }
      const std::int32_t compact = remap[static_cast<std::size_t>(root)];
      lab[x] = compact;
      Component& comp = comps[static_cast<std::size_t>(compact - 1)];
      ++comp.area;
      comp.min_x = std::min(comp.min_x, x);
      comp.min_y = std::min(comp.min_y, y);
      comp.max_x = std::max(comp.max_x, x);
      comp.max_y = std::max(comp.max_y, y);
      comp.centroid.x += x;
      comp.centroid.y += y;
    }
  }
  for (Component& comp : comps) {
    if (comp.area > 0) {
      comp.centroid.x /= static_cast<double>(comp.area);
      comp.centroid.y /= static_cast<double>(comp.area);
    }
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
  label_components_into(binary, labeling, scratch);
  mask.reset(binary.width(), binary.height(), kBackground);
  const Component* largest = nullptr;
  for (const Component& comp : labeling.components) {
    if (comp.area >= min_area && (largest == nullptr || comp.area > largest->area)) {
      largest = &comp;
    }
  }
  if (largest == nullptr) return;
  // Branchless select — 0 - (lab == target) is 0x00 or 0xFF, which IS the
  // {kBackground, kForeground} convention; the compiler vectorises the
  // compare+negate where a conditional store would not.
  const std::int32_t target = largest->label;
  const std::int32_t* lab = labeling.labels.data().data();
  std::uint8_t* dst = mask.data().data();
  const std::size_t count = mask.data().size();
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<std::uint8_t>(-static_cast<std::uint8_t>(lab[i] == target));
  }
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
