#include "recognition/recognizer.hpp"

#include <stdexcept>

#include "imaging/bit_image.hpp"
#include "imaging/components.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "imaging/signature.hpp"
#include "telemetry/flight_recorder.hpp"
#include "timeseries/normalize.hpp"
#include "util/stopwatch.hpp"

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

namespace {

void reset_result(RecognitionResult& result) {
  result.accepted = false;
  result.sign = signs::HumanSign::kNeutral;
  result.reject_reason = RejectReason::kNoSilhouette;
  result.distance = 0.0;
  result.margin = 0.0;
  result.sax_word.clear();  // keeps capacity for reuse across frames
  result.total_ms = 0.0;
}

/// Stages 1-5 (photometrics through contour) of the canonical pipeline:
/// leaves the silhouette's outer contour in scratch.contour (empty when no
/// component qualifies). From threshold to contour the frame stays a packed
/// 1-bit raster; the byte silhouette is unpacked only for a trace.
void trace_silhouette(const RecognizerConfig& config, const imaging::GrayImage& frame,
                      RecognizerScratch& scratch, RecognitionTrace* trace) {
  // Stage 1: photometric pre-processing, which runs only with blur on: the
  // integer box blur does not commute with inversion, so a dark silhouette
  // is inverted first. Without blur the stage is empty — the inversion folds
  // into the threshold — but its span still records the frame's sample.
  // `source` tracks the latest image without copying.
  const bool blur = config.preprocess_blur_sigma > 0.0;
  const imaging::GrayImage* source = &frame;
  {
    telemetry::TracedSpan span(scratch.metrics.preprocess_ns);
    if (blur) {
      if (config.dark_silhouette) {
        imaging::invert_into(frame, scratch.working);
        source = &scratch.working;
      }
      imaging::gaussian_blur_into(*source, config.preprocess_blur_sigma, scratch.blurred,
                                  scratch.blur_scratch);
      source = &scratch.blurred;
    }
  }

  // Stage 2: binarisation.
  {
    telemetry::TracedSpan span(scratch.metrics.threshold_ns);
    if (config.dark_silhouette && !blur) {
      imaging::otsu_threshold_dark_into(frame, scratch.bits);
    } else {
      imaging::otsu_threshold_into(*source, scratch.bits);
    }
  }

  // Stage 3: morphology cleanup. Close first (bridge hairline gaps at limb
  // joints), then open (remove speckle) — the other order can sever thin
  // limbs.
  {
    telemetry::TracedSpan span(scratch.metrics.morphology_ns);
    if (config.morphology_radius > 0) {
      imaging::close_into(scratch.bits, config.morphology_radius, scratch.bits_morph,
                          scratch.bits_a, scratch.bits_b);
      imaging::open_into(scratch.bits_morph, config.morphology_radius, scratch.bits,
                         scratch.bits_a, scratch.bits_b);
    }
  }

  // Stage 4: silhouette isolation.
  {
    telemetry::TracedSpan span(scratch.metrics.components_ns);
    imaging::largest_component_mask_into(scratch.bits, config.min_silhouette_area,
                                         scratch.bits_mask, scratch.labeling.components,
                                         scratch.label_scratch);
  }

  // Stage 5: contour.
  {
    telemetry::TracedSpan span(scratch.metrics.contour_ns);
    imaging::trace_boundary_into(scratch.bits_mask, scratch.contour);
  }
  if (trace != nullptr) {
    imaging::unpack(scratch.bits_mask, trace->silhouette);
    trace->contour = scratch.contour;
  }
}

/// Stage 6: shape -> time series, into scratch.signature (empty for
/// contours too short to have one).
void compute_signature(const RecognizerConfig& config, RecognizerScratch& scratch) {
  telemetry::TracedSpan span(scratch.metrics.signature_ns);
  if (config.aspect_normalize) {
    imaging::normalize_contour_aspect_into(scratch.contour, 100.0,
                                           scratch.normalized_contour);
    imaging::centroid_distance_signature_into(scratch.normalized_contour,
                                              config.signature_samples, scratch.signature,
                                              scratch.resampled);
  } else {
    imaging::centroid_distance_signature_into(scratch.contour, config.signature_samples,
                                              scratch.signature, scratch.resampled);
  }
}

/// Stages 1-6 for a frame headed to the database. Returns true when
/// scratch.signature is ready for the query; on false the result's reject
/// fields are final (the caller stamps total_ms).
bool prepare_frame(const RecognizerConfig& config, const imaging::GrayImage& frame,
                   RecognizerScratch& scratch, RecognitionResult& result,
                   RecognitionTrace* trace) {
  trace_silhouette(config, frame, scratch, trace);
  if (scratch.contour.empty()) {
    result.reject_reason = RejectReason::kNoSilhouette;
    return false;
  }
  if (scratch.contour.size() < 8) {
    result.reject_reason = RejectReason::kDegenerateShape;
    return false;
  }
  compute_signature(config, scratch);
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
                          RecognitionResult& result, RecognitionTrace* trace) {
  reset_result(result);
  util::Stopwatch total;

  if (!prepare_frame(config, frame, scratch, result, trace)) {
    result.total_ms = total.elapsed_ms();
    return;
  }

  // Stage 7: SAX encoding + database search.
  std::optional<DatabaseMatch> match;
  {
    telemetry::TracedSpan span(scratch.metrics.match_ns);
    match = database.query(scratch.signature, config.exact_verify, scratch.query);
  }
  // The query already encoded this signature's SAX word into its scratch.
  finalize_from_match(config, match, scratch.query.word.text, result);
  result.total_ms = total.elapsed_ms();
}

timeseries::Series SaxSignRecognizer::extract_signature(
    const imaging::GrayImage& frame) const {
  // The recogniser's own stages, minus its gate on short contours: any
  // contour of 3+ points still yields a signature here.
  RecognizerScratch scratch;
  trace_silhouette(config_, frame, scratch, nullptr);
  compute_signature(config_, scratch);
  return std::move(scratch.signature);
}

RecognitionResult SaxSignRecognizer::recognize(const imaging::GrayImage& frame,
                                               RecognitionTrace* trace) const {
  RecognitionResult result;
  RecognizerScratch scratch;
  recognize_frame_into(config_, *database_, frame, scratch, result, trace);
  return result;
}

}  // namespace hdc::recognition
