#include "recognition/recognizer.hpp"

#include <stdexcept>

#include "imaging/components.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "imaging/signature.hpp"
#include "telemetry/span.hpp"
#include "timeseries/normalize.hpp"

namespace hdc::recognition {

SaxSignRecognizer::SaxSignRecognizer(const RecognizerConfig& config,
                                     const DatabaseBuildOptions& db_options)
    : config_(config) {
  DatabaseBuildOptions options = db_options;
  options.signature_samples = config.signature_samples;
  // Templates run through this recogniser's own pipeline so a query under
  // canonical conditions reproduces its template bit-for-bit. The built
  // database is immediately frozen behind a const handle.
  database_ = std::make_shared<const SignDatabase>(build_canonical_database(
      make_encoder(config), options,
      [this](const imaging::GrayImage& frame) { return extract_signature(frame); }));
}

SaxSignRecognizer::SaxSignRecognizer(const RecognizerConfig& config, SignDatabase database)
    : SaxSignRecognizer(config,
                        std::make_shared<const SignDatabase>(std::move(database))) {}

SaxSignRecognizer::SaxSignRecognizer(const RecognizerConfig& config,
                                     std::shared_ptr<const SignDatabase> database)
    : config_(config), database_(std::move(database)) {
  if (database_ == nullptr) {
    throw std::invalid_argument("SaxSignRecognizer: null database handle");
  }
}

timeseries::Series SaxSignRecognizer::extract_signature(
    const imaging::GrayImage& frame) const {
  imaging::GrayImage working = config_.dark_silhouette ? imaging::invert(frame) : frame;
  if (config_.preprocess_blur_sigma > 0.0) {
    working = imaging::gaussian_blur(working, config_.preprocess_blur_sigma);
  }
  imaging::BinaryImage binary = imaging::otsu_threshold(working);
  if (config_.morphology_radius > 0) {
    // Close first (bridge hairline gaps at limb joints), then open
    // (remove speckle) — the other order can sever thin limbs.
    binary = imaging::close(binary, config_.morphology_radius);
    binary = imaging::open(binary, config_.morphology_radius);
  }
  binary = imaging::largest_component_mask(binary, config_.min_silhouette_area);
  imaging::Contour contour = imaging::trace_boundary(binary);
  if (config_.aspect_normalize) contour = imaging::normalize_contour_aspect(contour);
  return imaging::centroid_distance_signature(contour, config_.signature_samples);
}

namespace {

/// Conditional stage-timer scope: charges its lifetime to `timers` when
/// non-null (the streaming hot path passes null and pays nothing).
class MaybeScope {
 public:
  MaybeScope(util::StageTimers* timers, const char* stage)
      : timers_(timers), stage_(stage) {}
  ~MaybeScope() {
    if (timers_ != nullptr) timers_->add(stage_, watch_.elapsed_seconds());
  }
  MaybeScope(const MaybeScope&) = delete;
  MaybeScope& operator=(const MaybeScope&) = delete;

 private:
  util::StageTimers* timers_;
  const char* stage_;
  util::Stopwatch watch_;
};

void reset_result(RecognitionResult& result) {
  result.accepted = false;
  result.sign = signs::HumanSign::kNeutral;
  result.reject_reason = RejectReason::kNoSilhouette;
  result.distance = 0.0;
  result.margin = 0.0;
  result.sax_word.clear();  // keeps capacity for reuse across frames
  result.total_ms = 0.0;
}

/// Stages 1-6 (photometrics through signature extraction) of the canonical
/// pipeline. Returns true when scratch.signature is ready for the database
/// query; on false the result's reject fields are final (the caller stamps
/// total_ms).
bool prepare_frame(const RecognizerConfig& config, const imaging::GrayImage& frame,
                   RecognizerScratch& scratch, RecognitionResult& result,
                   util::StageTimers* timers, RecognitionTrace* trace) {
  // Stage 1: photometric pre-processing. `source` tracks the latest image
  // without copying when a step is disabled.
  const imaging::GrayImage* source = &frame;
  {
    MaybeScope scope(timers, "1-preprocess");
    if (config.dark_silhouette) {
      imaging::invert_into(frame, scratch.working);
      source = &scratch.working;
    }
    if (config.preprocess_blur_sigma > 0.0) {
      imaging::gaussian_blur_into(*source, config.preprocess_blur_sigma,
                                  scratch.blurred, scratch.blur_scratch);
      source = &scratch.blurred;
    }
  }

  // Stage 2: binarisation.
  {
    MaybeScope scope(timers, "2-threshold");
    imaging::otsu_threshold_into(*source, scratch.binary);
  }

  // Stage 3: morphology cleanup (close before open; see extract_signature).
  {
    MaybeScope scope(timers, "3-morphology");
    if (config.morphology_radius > 0) {
      imaging::close_into(scratch.binary, config.morphology_radius, scratch.morph,
                          scratch.morph_a, scratch.morph_b);
      imaging::open_into(scratch.morph, config.morphology_radius, scratch.binary,
                         scratch.morph_a, scratch.morph_b);
    }
  }

  // Stage 4: silhouette isolation.
  {
    MaybeScope scope(timers, "4-component");
    imaging::largest_component_mask_into(scratch.binary, config.min_silhouette_area,
                                         scratch.mask, scratch.labeling,
                                         scratch.label_scratch);
  }

  // Stage 5: contour.
  {
    MaybeScope scope(timers, "5-contour");
    imaging::trace_boundary_into(scratch.mask, scratch.contour);
  }
  if (trace != nullptr) {
    trace->silhouette = scratch.mask;
    trace->contour = scratch.contour;
  }
  if (scratch.contour.empty()) {
    result.reject_reason = RejectReason::kNoSilhouette;
    return false;
  }
  if (scratch.contour.size() < 8) {
    result.reject_reason = RejectReason::kDegenerateShape;
    return false;
  }

  // Stage 6: shape -> time series.
  {
    MaybeScope scope(timers, "6-signature");
    if (config.aspect_normalize) {
      imaging::normalize_contour_aspect_into(scratch.contour, 100.0,
                                             scratch.normalized_contour);
      imaging::centroid_distance_signature_into(scratch.normalized_contour,
                                                config.signature_samples,
                                                scratch.signature, scratch.resampled);
    } else {
      imaging::centroid_distance_signature_into(scratch.contour,
                                                config.signature_samples,
                                                scratch.signature, scratch.resampled);
    }
  }
  if (scratch.signature.empty()) {
    result.reject_reason = RejectReason::kDegenerateShape;
    return false;
  }
  if (trace != nullptr) {
    trace->raw_signature = scratch.signature;
    trace->normalized_signature = timeseries::z_normalize(scratch.signature);
  }
  return true;
}

/// Maps a stage-7 database answer onto the result's payload fields — the one
/// acceptance policy. `sax_word` is the query word the database encoded
/// during the search (only read when a match exists).
void finalize_from_match(const RecognizerConfig& config,
                         const std::optional<DatabaseMatch>& match,
                         const std::string& sax_word, RecognitionResult& result) {
  if (!match) {
    result.reject_reason = RejectReason::kNoSilhouette;
    return;
  }
  result.sign = match->sign;
  result.distance = match->distance;
  result.margin = match->margin;
  result.sax_word = sax_word;

  if (match->distance > config.accept_distance) {
    result.reject_reason = RejectReason::kAboveThreshold;
  } else if (match->margin < config.min_margin) {
    result.reject_reason = RejectReason::kLowMargin;
  } else {
    result.accepted = true;
    result.reject_reason = RejectReason::kNone;
  }
  // A match to the neutral stance is a valid outcome but not a sign.
  if (result.accepted && result.sign == signs::HumanSign::kNeutral) {
    result.accepted = false;
    result.reject_reason = RejectReason::kNone;  // recognised, just not communicative
  }
}

}  // namespace

void recognize_frame_into(const RecognizerConfig& config, const SignDatabase& database,
                          const imaging::GrayImage& frame, RecognizerScratch& scratch,
                          RecognitionResult& result, util::StageTimers* timers,
                          RecognitionTrace* trace) {
  reset_result(result);
  util::Stopwatch total;

  bool ready;
  {
    TELEMETRY_SPAN(scratch.metrics.prepare_ns);
    ready = prepare_frame(config, frame, scratch, result, timers, trace);
  }
  if (!ready) {
    result.total_ms = total.elapsed_ms();
    return;
  }

  // Stage 7: SAX encoding + database search.
  std::optional<DatabaseMatch> match;
  {
    MaybeScope scope(timers, "7-sax-search");
    TELEMETRY_SPAN(scratch.metrics.match_ns);
    match = database.query(scratch.signature, config.exact_verify, scratch.query);
  }
  // The query already encoded this signature's SAX word into its scratch.
  {
    TELEMETRY_SPAN(scratch.metrics.finalize_ns);
    finalize_from_match(config, match, scratch.query.word.text, result);
  }
  result.total_ms = total.elapsed_ms();
}

RecognitionResult SaxSignRecognizer::recognize(const imaging::GrayImage& frame,
                                               RecognitionTrace* trace) const {
  RecognitionResult result;
  RecognizerScratch scratch;
  recognize_frame_into(config_, *database_, frame, scratch, result, &timers_, trace);
  return result;
}

}  // namespace hdc::recognition
