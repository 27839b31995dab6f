// The string database of canonical sign signatures (paper §IV: "a
// comparison of the string against a database of strings ... can be used
// quite effectively to identify features in images").
//
// Each template stores the SAX word of a sign's canonical silhouette
// signature plus the z-normalised signature itself, so queries can use the
// cheap symbolic MINDIST first and optionally confirm with the exact
// rotation-invariant Euclidean distance. add_template also precomputes the
// doubled-buffer form of the signature (timeseries::RotationTemplate) so
// the exact-verify pass runs the vectorised rotation kernel with no
// per-query setup — the database pays the O(n) precompute once per
// template, every query reaps it.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "imaging/image.hpp"

#include "signs/scene.hpp"
#include "signs/sign.hpp"
#include "timeseries/distance.hpp"
#include "timeseries/sax.hpp"
#include "timeseries/series.hpp"

namespace hdc::recognition {

/// One stored reference.
struct SignTemplate {
  signs::HumanSign sign{signs::HumanSign::kNeutral};
  timeseries::SaxWord word{};
  timeseries::Series normalized_signature{};  ///< z-normalised, length = samples
  /// Doubled-buffer form of normalized_signature for the vectorised
  /// rotation-invariant kernel; built in add_template, immutable after.
  timeseries::RotationTemplate rotation{};
  std::string label;                          ///< provenance, e.g. "No@az0/alt5"
};

/// Query result against the database.
struct DatabaseMatch {
  signs::HumanSign sign{signs::HumanSign::kNeutral};
  double distance{0.0};        ///< rotation-invariant MINDIST (or exact, see flag)
  double margin{0.0};          ///< runner-up distance minus best distance
  std::size_t template_index{0};
  std::size_t best_shift{0};   ///< rotation at which the best match occurred
};

/// Reusable buffers for one querying thread. Queries against a shared
/// database from N workers need N scratches; the database itself is
/// immutable after build and safe to share. All vectors are resized in
/// place by query(), so a scratch that has seen one query of a given
/// signature length performs zero heap allocations on every later query of
/// that length — the contract the streaming shards (RecognizerScratch
/// embeds one QueryScratch per shard) rely on. A scratch must never be
/// shared between concurrently processed frames.
struct QueryScratch {
  struct Scored {
    double distance;
    std::size_t index;
    std::size_t shift;
  };
  timeseries::Series normalized;  ///< z-normalised query signature
  timeseries::Series paa;         ///< PAA coefficients for the SAX encode
  timeseries::SaxWord word;       ///< query SAX word (kept: recognizer reads it)
  timeseries::SaxWord rotated;    ///< rotation scratch for symbolic MINDIST
  std::vector<Scored> scored;     ///< per-template symbolic distances
};

/// Immutable-after-build template store.
class SignDatabase {
 public:
  explicit SignDatabase(timeseries::SaxEncoder encoder) : encoder_(std::move(encoder)) {}

  /// Adds a template from a raw (not yet normalised) signature: z-normalises
  /// it, encodes the SAX word, and precomputes the doubled rotation buffer.
  /// O(n + w) per call. Not thread-safe; build fully before sharing.
  void add_template(signs::HumanSign sign, const timeseries::Series& raw_signature,
                    std::string label);

  /// Nearest template. Without `exact_verify`: by symbolic
  /// rotation-invariant MINDIST. With it: every template is scored, in index
  /// order, by exact rotation-invariant Euclidean distance
  /// (timeseries::euclidean_rotation_invariant — the symbolic rotation scan
  /// moves in whole-symbol steps, so MINDIST is NOT a sound lower bound
  /// under arbitrary shifts and the symbolic per-template scan is skipped
  /// entirely), and the result carries the exact distance/margin/shift.
  /// Either way the query's SAX word is encoded into the scratch (the
  /// recogniser reads it back). Returns nullopt when the database is empty
  /// or the query signature is empty. O(T * n^2) with exact_verify,
  /// O(T * w^2) without, for T templates, word length w, signature length n.
  [[nodiscard]] std::optional<DatabaseMatch> query(
      const timeseries::Series& raw_signature, bool exact_verify = false) const;

  /// query with caller-owned scratch buffers (allocation-free once warm —
  /// see QueryScratch); bit-identical to the version above, which delegates
  /// here.
  [[nodiscard]] std::optional<DatabaseMatch> query(
      const timeseries::Series& raw_signature, bool exact_verify,
      QueryScratch& scratch) const;

  [[nodiscard]] const std::vector<SignTemplate>& templates() const noexcept {
    return templates_;
  }
  [[nodiscard]] const timeseries::SaxEncoder& encoder() const noexcept {
    return encoder_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return templates_.size(); }

 private:
  [[nodiscard]] DatabaseMatch exact_rank(const timeseries::Series& normalized) const;
  [[nodiscard]] DatabaseMatch symbolic_rank(
      const timeseries::SaxWord& query_word,
      std::vector<QueryScratch::Scored>& scored,
      timeseries::SaxWord& rotated) const;

  timeseries::SaxEncoder encoder_;
  std::vector<SignTemplate> templates_;
};

/// Options controlling database construction from the synthetic renderer.
/// The canonical view is the paper's "0-deg relative azimuth image as the
/// canonical reference"; the altitude sits mid-way through the paper's
/// working band (2-5 m) so one reference serves the whole band.
struct DatabaseBuildOptions {
  signs::ViewGeometry canonical_view{3.5, 3.0, 0.0};
  signs::RenderOptions render{};
  std::size_t signature_samples{128};
  bool include_neutral{true};  ///< store the neutral stance as a negative class
  /// Extra reference altitudes (extension beyond the paper's single
  /// canonical image): one additional template per sign per entry, at the
  /// canonical azimuth/distance. Widens the working envelope at the cost
  /// of a linearly larger database.
  std::vector<double> extra_altitudes{};
};

/// Extracts a signature series from a rendered frame. The recogniser passes
/// its own pipeline here so templates and queries go through *identical*
/// processing — any asymmetry would show up as spurious distance.
using SignatureExtractor =
    std::function<timeseries::Series(const imaging::GrayImage&)>;

/// Renders each sign's canonical pose at the canonical view and stores its
/// signature — the reproduction of the authors' reference-image database.
[[nodiscard]] SignDatabase build_canonical_database(const timeseries::SaxEncoder& encoder,
                                                    const DatabaseBuildOptions& options,
                                                    const SignatureExtractor& extractor);

}  // namespace hdc::recognition
