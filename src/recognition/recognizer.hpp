// SaxSignRecognizer — the paper's recognition pipeline (§IV), end to end:
//
//   camera frame -> (invert, blur: blur on only) -> Otsu threshold ->
//   morphology -> largest component -> Moore contour -> centroid-distance
//   signature -> z-normalise -> PAA -> SAX word -> string-database match
//
// With blur off (the default) a dark silhouette is never inverted: the
// threshold takes Otsu's level L of the raw histogram reversed and keeps
// pixels p <= 255 - L, the same bits as thresholding the inverted frame.
//
// Rotation invariance comes from circular-shift matching of the periodic
// contour signature; real-time behaviour from the symbolic representation
// (dimensionality w << n) with optional exact verification. Each of the
// seven stages times itself into the scratch's telemetry::Histogram handles
// (RecognizerScratch::metrics), which reproduce the paper's per-stage latency
// measurements (T-LAT) from a telemetry::MetricsRegistry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "imaging/bit_image.hpp"
#include "imaging/components.hpp"
#include "imaging/contour.hpp"
#include "imaging/image.hpp"
#include "recognition/sign_database.hpp"
#include "telemetry/stage_names.hpp"

namespace hdc::recognition {

/// Why a frame produced no accepted sign.
enum class RejectReason : std::uint8_t {
  kNone = 0,         ///< accepted
  kNoSilhouette,     ///< nothing above threshold / too small
  kDegenerateShape,  ///< contour too short for a signature
  kAboveThreshold,   ///< nearest template too far (paper's "erratic" zone)
  kLowMargin,        ///< two templates nearly tied — ambiguous
};

[[nodiscard]] constexpr const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "None";
    case RejectReason::kNoSilhouette: return "NoSilhouette";
    case RejectReason::kDegenerateShape: return "DegenerateShape";
    case RejectReason::kAboveThreshold: return "AboveThreshold";
    case RejectReason::kLowMargin: return "LowMargin";
  }
  return "?";
}

/// Pipeline configuration.
struct RecognizerConfig {
  std::size_t signature_samples{128};
  std::size_t word_length{16};   ///< PAA segments (tunable, ref [22])
  std::size_t alphabet{9};       ///< SAX alphabet size (tunable, ref [22])
  double accept_distance{6.5};   ///< max distance for acceptance
  double min_margin{0.35};       ///< min (runner-up - best) separation
  std::size_t min_silhouette_area{120};  ///< pixels
  /// Off by default: the Otsu + morphology chain is robust on clean frames,
  /// and heavy blur thins distant limbs out of the silhouette. Enable
  /// (e.g. 1.0) when frames carry strong sensor noise.
  double preprocess_blur_sigma{0.0};
  int morphology_radius{1};
  bool exact_verify{true};       ///< re-rank SAX candidates exactly
  bool dark_silhouette{true};    ///< signaller darker than background
  /// Rescale the contour bounding box to a square before the signature.
  /// Cancels depression-angle foreshortening across the 2-5 m altitude
  /// band; disable only for the ablation that measures its effect.
  bool aspect_normalize{true};
};

/// Full result of one frame.
struct RecognitionResult {
  bool accepted{false};
  signs::HumanSign sign{signs::HumanSign::kNeutral};
  RejectReason reject_reason{RejectReason::kNoSilhouette};
  double distance{0.0};
  double margin{0.0};
  std::string sax_word;
  double total_ms{0.0};
};

/// Intermediate artefacts for debugging/visualisation (requested per call).
struct RecognitionTrace {
  imaging::BinaryImage silhouette;
  imaging::Contour contour;
  timeseries::Series raw_signature;
  timeseries::Series normalized_signature;
};

/// Every buffer the per-frame pipeline needs, owned by the caller so the hot
/// path performs no heap allocation after the first frame of a given size.
/// One scratch per worker thread; a scratch must never be shared between
/// concurrently processed frames.
struct RecognizerScratch {
  imaging::GrayImage working;        ///< inverted frame (blur path only)
  imaging::GrayImage blurred;        ///< optional blur output
  imaging::GrayImage blur_scratch;   ///< box-pass ping-pong
  imaging::BitImage bits;            ///< packed threshold / morphology result
  imaging::BitImage bits_morph;      ///< packed morphology intermediate
  imaging::BitImage bits_a;          ///< packed separable-pass scratch
  imaging::BitImage bits_b;          ///< packed separable-pass scratch
  imaging::BitImage bits_mask;       ///< packed largest-component silhouette
  /// Byte rasters for callers that run the stages one by one through the
  /// BinaryImage entry points; recognize_frame_into never touches them.
  imaging::BinaryImage binary;
  imaging::BinaryImage morph;
  imaging::BinaryImage morph_a;
  imaging::BinaryImage morph_b;
  imaging::BinaryImage mask;
  /// Components of the last frame (the hot path fills only `components`;
  /// `labels` stays empty) and the run arenas behind them.
  imaging::Labeling labeling;
  imaging::LabelScratch label_scratch;
  imaging::Contour contour;
  imaging::Contour normalized_contour;
  imaging::Contour resampled;
  timeseries::Series signature;
  /// Database-query buffers — the template-side doubled buffers live in the
  /// (shared, immutable) SignDatabase itself, so N scratches never
  /// duplicate them.
  QueryScratch query;
  /// One histogram per pipeline stage, 1-preprocess through 7-match
  /// (disarmed by default — a span on a disarmed handle is a no-op branch).
  /// PerceptionService arms them once per shard scratch when a
  /// telemetry::MetricsRegistry is wired; RecognitionStageMetrics::from arms
  /// any other scratch.
  telemetry::RecognitionStageMetrics metrics;
};

/// The full single-frame pipeline writing into caller-owned buffers. This is
/// the one canonical implementation: SaxSignRecognizer::recognize delegates
/// here with a fresh scratch, and every PerceptionService shard calls it once
/// per frame with its own warm scratch, so both produce bit-identical
/// payloads. `trace` may be null; it costs extra when set, so the streaming
/// hot path passes null. Per-stage times go to `scratch.metrics`.
void recognize_frame_into(const RecognizerConfig& config, const SignDatabase& database,
                          const imaging::GrayImage& frame, RecognizerScratch& scratch,
                          RecognitionResult& result, RecognitionTrace* trace = nullptr);

class SaxSignRecognizer {
 public:
  /// Builds the recogniser and its canonical database. `db_options.render`
  /// should match the camera the drone actually carries.
  SaxSignRecognizer(const RecognizerConfig& config,
                    const DatabaseBuildOptions& db_options);

  /// Builds with an externally constructed database (must use a compatible
  /// encoder configuration). Wraps the value in a fresh shared handle.
  SaxSignRecognizer(const RecognizerConfig& config, SignDatabase database);

  /// Builds against an existing shared database handle — no copy. The
  /// database is immutable after build, so any number of recognisers and
  /// perception shards may share one instance.
  SaxSignRecognizer(const RecognizerConfig& config,
                    std::shared_ptr<const SignDatabase> database);

  /// Processes one frame. When `trace` is non-null, intermediates are
  /// copied out (costs extra; keep null on the hot path). Stateless: safe to
  /// call concurrently on one recogniser.
  [[nodiscard]] RecognitionResult recognize(const imaging::GrayImage& frame,
                                            RecognitionTrace* trace = nullptr) const;

  /// The silhouette signature of a frame without matching (used by the
  /// uniqueness study and tests).
  [[nodiscard]] timeseries::Series extract_signature(const imaging::GrayImage& frame) const;

  [[nodiscard]] const RecognizerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const SignDatabase& database() const noexcept { return *database_; }

  /// The shared handle itself, so callers can fan the one immutable
  /// database out to other engines without copying templates.
  [[nodiscard]] const std::shared_ptr<const SignDatabase>& database_ptr()
      const noexcept {
    return database_;
  }

 private:
  RecognizerConfig config_;
  std::shared_ptr<const SignDatabase> database_;
};

/// Encoder matching a RecognizerConfig (shared by DB builders and tests).
[[nodiscard]] inline timeseries::SaxEncoder make_encoder(const RecognizerConfig& config) {
  return timeseries::SaxEncoder(
      timeseries::SaxConfig(config.word_length, config.alphabet));
}

}  // namespace hdc::recognition
