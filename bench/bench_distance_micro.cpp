// Rotation-invariant distance micro-bench: the vectorised doubled-buffer
// kernel (timeseries::euclidean_rotation_invariant) against the historical
// scalar scan (euclidean_rotation_invariant_reference) on z-normalised
// random signatures.
//
// The bench reports pairs/sec for both implementations across signature
// lengths (the recogniser uses n = 128) and enforces two gates, exiting
// non-zero on either failure (CI treats both as regressions — the speedup
// is algorithmic, no extra cores required):
//
//   identity  — every pair agrees with the reference on best shift and on
//               distance within 1e-9, and the raw-series overload returns
//               the same bits as the precomputed-template form.
//   >= 2x ref — the kernel beats the scalar scan 2x at n = 128.
//
// Flags: --smoke (fewer reps/pairs for CI), --json PATH (per-PR artifact).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "timeseries/distance.hpp"
#include "timeseries/normalize.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hdc;
using timeseries::RotationTemplate;
using timeseries::Series;

Series random_signature(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Series raw;
  raw.reserve(n);
  for (std::size_t i = 0; i < n; ++i) raw.push_back(rng.gaussian());
  return timeseries::z_normalize(raw);
}

struct CellResult {
  std::size_t n{0};
  std::size_t queries{0};
  std::size_t templates{0};
  double reference_pairs_per_sec{0.0};
  double kernel_pairs_per_sec{0.0};
  double speedup{0.0};  ///< kernel vs reference
  bool identical{true};
};

CellResult run_cell(std::size_t n, std::size_t queries, std::size_t templates,
                    int reps) {
  CellResult cell;
  cell.n = n;
  cell.queries = queries;
  cell.templates = templates;

  std::vector<Series> query_set, template_set;
  for (std::size_t q = 0; q < queries; ++q) {
    query_set.push_back(random_signature(n, 1000 + q * 7919 + n));
  }
  for (std::size_t t = 0; t < templates; ++t) {
    template_set.push_back(random_signature(n, 2000 + t * 104729 + n));
  }
  // One planted near-match per query so the reference's early abandon gets
  // the favourable case it was designed for (a close template prunes the
  // rest) — the speedup is measured against the reference at its best.
  template_set.back() = timeseries::rotate_left(query_set.front(), n / 3);

  std::vector<RotationTemplate> doubled;
  for (const Series& t : template_set) {
    doubled.push_back(timeseries::make_rotation_template(t));
  }

  const std::size_t pairs = queries * templates;
  std::vector<double> ref_distance(pairs), new_distance(pairs);
  std::vector<std::size_t> ref_shift(pairs), new_shift(pairs);

  // Scalar reference scan.
  double ref_seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    util::Stopwatch watch;
    for (std::size_t q = 0; q < queries; ++q) {
      for (std::size_t t = 0; t < templates; ++t) {
        ref_distance[q * templates + t] = timeseries::euclidean_rotation_invariant_reference(
            query_set[q], template_set[t], &ref_shift[q * templates + t]);
      }
    }
    ref_seconds = std::min(ref_seconds, watch.elapsed_seconds());
  }

  // Vectorised kernel against precomputed templates (the SignDatabase
  // exact-verify shape).
  double kernel_seconds = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    util::Stopwatch watch;
    for (std::size_t q = 0; q < queries; ++q) {
      for (std::size_t t = 0; t < templates; ++t) {
        new_distance[q * templates + t] = timeseries::euclidean_rotation_invariant(
            query_set[q], doubled[t], &new_shift[q * templates + t]);
      }
    }
    kernel_seconds = std::min(kernel_seconds, watch.elapsed_seconds());
  }

  // Identity gate: same best shift, distance within 1e-9 of the reference;
  // the raw-series overload must equal the template form bit for bit.
  for (std::size_t q = 0; cell.identical && q < queries; ++q) {
    for (std::size_t t = 0; cell.identical && t < templates; ++t) {
      const std::size_t i = q * templates + t;
      std::size_t series_shift = 0;
      const double series_distance = timeseries::euclidean_rotation_invariant(
          query_set[q], template_set[t], &series_shift);
      cell.identical = new_shift[i] == ref_shift[i] &&
                       std::abs(new_distance[i] - ref_distance[i]) <= 1e-9 &&
                       series_distance == new_distance[i] &&
                       series_shift == new_shift[i];
    }
  }

  const double pair_count = static_cast<double>(pairs);
  cell.reference_pairs_per_sec = pair_count / ref_seconds;
  cell.kernel_pairs_per_sec = pair_count / kernel_seconds;
  cell.speedup = ref_seconds / kernel_seconds;
  return cell;
}

void write_json(const std::string& path, const std::vector<CellResult>& cells,
                double speedup_at_128, bool target_met) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for JSON output\n";
    return;
  }
  out << "{\n  \"bench\": \"distance_micro\",\n"
      << "  \"speedup_at_128\": " << speedup_at_128 << ",\n"
      << "  \"target_met\": " << (target_met ? "true" : "false") << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    {\"n\": " << c.n << ", \"queries\": " << c.queries
        << ", \"templates\": " << c.templates
        << ", \"reference_pairs_per_sec\": " << c.reference_pairs_per_sec
        << ", \"kernel_pairs_per_sec\": " << c.kernel_pairs_per_sec
        << ", \"speedup\": " << c.speedup
        << ", \"identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--json PATH]\n";
      return 2;
    }
  }

  const int reps = smoke ? 2 : 3;
  const std::size_t queries = smoke ? 16 : 64;
  const std::size_t templates = 16;  // a realistic multi-altitude database
  const std::vector<std::size_t> lengths = {32, 128, 512};

  util::TextTable table(
      {"n", "pairs", "ref pairs/s", "kernel pairs/s", "speedup", "identical"});
  std::vector<CellResult> cells;
  bool all_identical = true;
  double speedup_at_128 = 0.0;
  for (const std::size_t n : lengths) {
    const CellResult cell = run_cell(n, queries, templates, reps);
    cells.push_back(cell);
    all_identical = all_identical && cell.identical;
    if (n == 128) speedup_at_128 = cell.speedup;
    table.add_row({std::to_string(cell.n), std::to_string(cell.queries * cell.templates),
                   util::fmt(cell.reference_pairs_per_sec, 0),
                   util::fmt(cell.kernel_pairs_per_sec, 0),
                   util::fmt(cell.speedup, 2) + "x", cell.identical ? "yes" : "NO"});
  }

  std::cout << "\n--- rotation-invariant distance (best of " << reps << ", "
            << templates << " templates/query) ---\n";
  table.print(std::cout);

  const bool target_met = speedup_at_128 >= 2.0;
  std::cout << "identity (ref within 1e-9; series form == template form bitwise): "
            << (all_identical ? "yes" : "NO") << "\n"
            << "target (>= 2x over scalar scan at n=128): "
            << (target_met ? "MET" : "NOT MET") << " (" << util::fmt(speedup_at_128, 2)
            << "x)\n";

  if (!json_path.empty()) {
    write_json(json_path, cells, speedup_at_128, target_met);
    std::cout << "wrote " << json_path << "\n";
  }

  if (!all_identical) {
    std::cout << "FAIL: kernel diverges from the reference scan\n";
    return 1;
  }
  if (!target_met) {
    std::cout << "FAIL: kernel below the 2x speedup target\n";
    return 1;
  }
  return 0;
}
