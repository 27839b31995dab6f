// Symbolic Aggregate approXimation (SAX) — "converting the aggregate to a
// string of characters" (paper Section IV, after Lin/Keogh et al. and the
// shape-motif application of ref [21]).
//
// A z-normalised series is PAA-reduced to w coefficients, then each
// coefficient is mapped to one of `alphabet` symbols using breakpoints that
// divide the standard normal distribution into equiprobable regions. Two SAX
// words can be compared with MINDIST, which lower-bounds the Euclidean
// distance between the original series — the property that makes SAX search
// sound.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "timeseries/series.hpp"

namespace hdc::timeseries {

/// Inclusive bounds accepted for the SAX alphabet size. Symbols are the
/// lowercase letters starting at 'a'.
inline constexpr std::size_t kMinAlphabet = 2;
inline constexpr std::size_t kMaxAlphabet = 20;

/// Inverse CDF of the standard normal distribution (Acklam's rational
/// approximation, |relative error| < 1.2e-9). Exposed for tests.
[[nodiscard]] double inverse_normal_cdf(double p);

/// Breakpoints beta_1 < ... < beta_{a-1} that cut N(0,1) into `alphabet`
/// equiprobable regions. Throws std::invalid_argument outside
/// [kMinAlphabet, kMaxAlphabet].
[[nodiscard]] std::vector<double> sax_breakpoints(std::size_t alphabet);

/// Immutable SAX configuration + the derived lookup tables.
class SaxConfig {
 public:
  /// `word_length`: number of PAA segments (paper: tunable, ref [22]).
  /// `alphabet`: alphabet size in [kMinAlphabet, kMaxAlphabet].
  SaxConfig(std::size_t word_length, std::size_t alphabet);

  [[nodiscard]] std::size_t word_length() const noexcept { return word_length_; }
  [[nodiscard]] std::size_t alphabet() const noexcept { return alphabet_; }
  [[nodiscard]] const std::vector<double>& breakpoints() const noexcept {
    return breakpoints_;
  }

  /// Symbol index (0-based) for one z-normalised PAA coefficient.
  [[nodiscard]] std::size_t symbol_index(double value) const noexcept;

  /// Character for a symbol index: 0 -> 'a', 1 -> 'b', ...
  [[nodiscard]] static char symbol_char(std::size_t index) noexcept {
    return static_cast<char>('a' + index);
  }

  /// MINDIST cell distance between two symbol indices: 0 when adjacent or
  /// equal, otherwise the gap between the enclosing breakpoints.
  [[nodiscard]] double cell_distance(std::size_t i, std::size_t j) const noexcept;

 private:
  std::size_t word_length_;
  std::size_t alphabet_;
  std::vector<double> breakpoints_;
  std::vector<double> dist_table_;  // alphabet x alphabet, row-major
};

/// A SAX word plus the provenance needed to compute MINDIST.
struct SaxWord {
  std::string text;             ///< symbol characters, length == word_length
  std::size_t source_length{0};  ///< n of the original series (MINDIST scale)

  [[nodiscard]] bool operator==(const SaxWord& other) const noexcept {
    return text == other.text;
  }
};

/// Encodes series into SAX words under a fixed configuration.
class SaxEncoder {
 public:
  explicit SaxEncoder(SaxConfig config) : config_(std::move(config)) {}

  /// Full pipeline on a raw series: z-normalise -> PAA -> symbols.
  /// O(n + w), allocates the word (and normalisation scratch).
  [[nodiscard]] SaxWord encode(const Series& raw) const;

  /// Encodes a series that is already z-normalised (skips normalisation).
  /// O(n + w), allocates the word.
  [[nodiscard]] SaxWord encode_normalized(const Series& normalized) const;

  /// encode_normalized into `out`, reusing `paa_scratch` for the PAA
  /// coefficients (both resized in place — allocation-free once warm, the
  /// contract QueryScratch relies on); bit-identical to the allocating
  /// version, which delegates here. O(n + w).
  void encode_normalized_into(const Series& normalized, SaxWord& out,
                              Series& paa_scratch) const;

  /// MINDIST between two words produced by this encoder, in the
  /// (dimensionless) unit of the z-normalised series. Lower-bounds the
  /// Euclidean distance between the original z-normalised series. Words
  /// must have equal length and equal source_length. O(w), no allocation.
  [[nodiscard]] double mindist(const SaxWord& a, const SaxWord& b) const;

  /// Minimum MINDIST over all circular rotations of `b`'s word — the
  /// rotation-invariant comparison used for closed-contour signatures
  /// (paper Section IV: "The recognition algorithm must be rotation
  /// invariant"). Rotations move in whole-symbol steps (n/w samples each),
  /// so this does NOT lower-bound the exact rotation-invariant Euclidean
  /// distance under arbitrary sample shifts — exact verification must
  /// score every template (SignDatabase::query does). Returns the best
  /// distance and writes the best word-rotation (multiply by n/w for an
  /// approximate sample shift) to `best_shift` when non-null. O(w^2).
  [[nodiscard]] double mindist_rotation_invariant(const SaxWord& a, const SaxWord& b,
                                                  std::size_t* best_shift = nullptr) const;

  /// mindist_rotation_invariant with a caller-owned scratch word for the
  /// rotations (keeps the streaming query path allocation-free once warm);
  /// bit-identical to the version above, which delegates here.
  [[nodiscard]] double mindist_rotation_invariant(const SaxWord& a, const SaxWord& b,
                                                  std::size_t* best_shift,
                                                  SaxWord& rotated_scratch) const;

  /// Exact Hamming distance between the two words' character strings
  /// (symbol count, not a Euclidean bound). O(w), no allocation.
  [[nodiscard]] static std::size_t hamming(const SaxWord& a, const SaxWord& b);

  [[nodiscard]] const SaxConfig& config() const noexcept { return config_; }

 private:
  SaxConfig config_;
};

}  // namespace hdc::timeseries
