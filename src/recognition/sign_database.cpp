#include "recognition/sign_database.hpp"

#include <algorithm>
#include <limits>

#include "imaging/components.hpp"
#include "imaging/contour.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "imaging/signature.hpp"
#include "timeseries/distance.hpp"
#include "timeseries/normalize.hpp"

namespace hdc::recognition {

void SignDatabase::add_template(signs::HumanSign sign,
                                const timeseries::Series& raw_signature,
                                std::string label) {
  SignTemplate entry;
  entry.sign = sign;
  entry.normalized_signature = timeseries::z_normalize(raw_signature);
  entry.word = encoder_.encode_normalized(entry.normalized_signature);
  // Precompute the doubled buffer once here so every exact-verify query
  // runs the vectorised rotation kernel with zero per-query setup.
  entry.rotation = timeseries::make_rotation_template(entry.normalized_signature);
  entry.label = std::move(label);
  templates_.push_back(std::move(entry));
}

std::optional<DatabaseMatch> SignDatabase::query(const timeseries::Series& raw_signature,
                                                 bool exact_verify) const {
  QueryScratch scratch;
  return query(raw_signature, exact_verify, scratch);
}

std::optional<DatabaseMatch> SignDatabase::query(const timeseries::Series& raw_signature,
                                                 bool exact_verify,
                                                 QueryScratch& scratch) const {
  if (templates_.empty() || raw_signature.empty()) return std::nullopt;

  timeseries::z_normalize_into(raw_signature, scratch.normalized);
  // Always encode: the recogniser reads the query word out of the scratch
  // (RecognitionResult::sax_word) whichever ranking path runs below.
  encoder_.encode_normalized_into(scratch.normalized, scratch.word, scratch.paa);
  if (exact_verify) return exact_rank(scratch.normalized);
  return symbolic_rank(scratch.word, scratch.scored, scratch.rotated);
}

// Exact ranking: every template scored by the rotation kernel. The symbolic
// rotation-invariant distance only explores shifts in whole-symbol steps,
// so it is NOT a sound lower bound for the exact distance under arbitrary
// shifts — every template must be scored. Index order plus the strict-<
// update means exact ties resolve to the lowest template index.
DatabaseMatch SignDatabase::exact_rank(const timeseries::Series& normalized) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double best = kInf;
  double second = kInf;
  std::size_t best_index = 0;
  std::size_t best_shift = 0;
  for (std::size_t i = 0; i < templates_.size(); ++i) {
    std::size_t shift = 0;
    const double d =
        timeseries::euclidean_rotation_invariant(normalized, templates_[i].rotation, &shift);
    if (d < best) {
      second = best;
      best = d;
      best_index = i;
      best_shift = shift;
    } else if (d < second) {
      second = d;
    }
  }
  DatabaseMatch match;
  match.sign = templates_[best_index].sign;
  match.distance = best;
  match.margin = second == kInf ? best : second - best;
  match.template_index = best_index;
  match.best_shift = best_shift;
  return match;
}

// Symbolic-only ranking: per-template rotation-invariant MINDIST.
DatabaseMatch SignDatabase::symbolic_rank(
    const timeseries::SaxWord& query_word,
    std::vector<QueryScratch::Scored>& scored,
    timeseries::SaxWord& rotated) const {
  using Scored = QueryScratch::Scored;
  scored.clear();
  scored.reserve(templates_.size());
  for (std::size_t i = 0; i < templates_.size(); ++i) {
    std::size_t shift = 0;
    const double d = encoder_.mindist_rotation_invariant(query_word, templates_[i].word,
                                                         &shift, rotated);
    scored.push_back({d, i, shift});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.distance < b.distance; });

  DatabaseMatch match;
  match.sign = templates_[scored.front().index].sign;
  match.distance = scored.front().distance;
  match.margin = scored.size() > 1 ? scored[1].distance - scored[0].distance
                                   : scored[0].distance;
  match.template_index = scored.front().index;
  match.best_shift = scored.front().shift;
  return match;
}

SignDatabase build_canonical_database(const timeseries::SaxEncoder& encoder,
                                      const DatabaseBuildOptions& options,
                                      const SignatureExtractor& extractor) {
  SignDatabase db(encoder);
  std::vector<signs::ViewGeometry> views = {options.canonical_view};
  for (const double altitude : options.extra_altitudes) {
    signs::ViewGeometry view = options.canonical_view;
    view.altitude_m = altitude;
    views.push_back(view);
  }
  for (const signs::HumanSign sign : signs::kAllSigns) {
    if (sign == signs::HumanSign::kNeutral && !options.include_neutral) continue;
    for (const signs::ViewGeometry& view : views) {
      const imaging::GrayImage frame = signs::render_sign(sign, view, options.render);
      const timeseries::Series signature = extractor(frame);
      if (signature.empty()) continue;  // defensive: canonical renders never fail
      std::string label = std::string(signs::to_string(sign)) + "@az" +
                          std::to_string(static_cast<int>(view.relative_azimuth_deg)) +
                          "/alt" + std::to_string(static_cast<int>(view.altitude_m));
      db.add_template(sign, signature, std::move(label));
    }
  }
  return db;
}

}  // namespace hdc::recognition
