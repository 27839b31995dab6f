// Canonical metric names for the pipeline, so services, benches and tests
// agree on spelling. Naming scheme (docs/OBSERVABILITY.md):
//
//   <layer>_<stage>_ns        latency histogram (steady-clock nanoseconds)
//   <layer>_<what>_total      monotonic counter, read from a stats count
//   <layer>_<what>            gauge, read from a level (queue depths)
//
// Each counter is a plain count, named once by the table beside its stats
// struct (kInteractionCounters, ...); the one gauge is the sum of the
// perception shard rings' size(), read when a snapshot is taken. The
// `interaction_` / `coordination_` counters count only while an admitted
// input is processed: they are the
// REPLAY-DETERMINISTIC set (protocol::replay_deterministic_counters()),
// which a journal's MetricSnapshotRecord carries, with or without a
// registry wired, and must reproduce bit-exactly on replay.
#pragma once

#include <string_view>

#include "telemetry/metrics.hpp"

namespace hdc::telemetry {

// --- perception (frame submit -> shard ring -> recognition) -------------
inline constexpr std::string_view kPerceptionSubmit = "perception_submit_ns";
inline constexpr std::string_view kPerceptionRingWait = "perception_ring_wait_ns";
inline constexpr std::string_view kPerceptionRecognize = "perception_recognize_ns";
inline constexpr std::string_view kPerceptionFramesSubmitted =
    "perception_frames_submitted_total";
inline constexpr std::string_view kPerceptionQueueDepth = "perception_queue_depth";

// --- recognition (inside the shared pipeline; one per stage, §IV) -------
inline constexpr std::string_view kRecognitionPreprocess = "recognition_preprocess_ns";
inline constexpr std::string_view kRecognitionThreshold = "recognition_threshold_ns";
inline constexpr std::string_view kRecognitionMorphology = "recognition_morphology_ns";
inline constexpr std::string_view kRecognitionComponents = "recognition_components_ns";
inline constexpr std::string_view kRecognitionContour = "recognition_contour_ns";
inline constexpr std::string_view kRecognitionSignature = "recognition_signature_ns";
inline constexpr std::string_view kRecognitionMatch = "recognition_match_ns";
/// The seven recognition stage histograms, in pipeline order.
inline constexpr std::string_view kRecognitionStages[] = {
    kRecognitionPreprocess, kRecognitionThreshold, kRecognitionMorphology,
    kRecognitionComponents, kRecognitionContour,   kRecognitionSignature,
    kRecognitionMatch,
};

// --- interaction (fuser + dialogue FSM, on the caller's thread) ----------
inline constexpr std::string_view kInteractionFuse = "interaction_fuse_ns";
inline constexpr std::string_view kInteractionTransition = "interaction_transition_ns";
inline constexpr std::string_view kInteractionObservations =
    "interaction_observations_total";
inline constexpr std::string_view kInteractionEvents = "interaction_events_total";
inline constexpr std::string_view kInteractionActions = "interaction_actions_total";
inline constexpr std::string_view kInteractionOutcomes = "interaction_outcomes_total";

// --- coordination (arbiter + grant registry, on the admitting thread) ----
inline constexpr std::string_view kCoordinationArbitrate = "coordination_arbitrate_ns";
inline constexpr std::string_view kCoordinationGrantSpan = "coordination_grant_ns";
inline constexpr std::string_view kCoordinationRenewSpan = "coordination_renew_ns";
inline constexpr std::string_view kCoordinationExpireSpan = "coordination_expire_ns";
inline constexpr std::string_view kCoordinationEvents = "coordination_events_total";
inline constexpr std::string_view kCoordinationArbitrations =
    "coordination_arbitrations_total";
inline constexpr std::string_view kCoordinationDeferrals =
    "coordination_deferrals_total";
inline constexpr std::string_view kCoordinationGrants = "coordination_grants_total";
inline constexpr std::string_view kCoordinationDenials = "coordination_denials_total";
inline constexpr std::string_view kCoordinationRevocations =
    "coordination_revocations_total";
inline constexpr std::string_view kCoordinationRenewals =
    "coordination_renewals_total";
inline constexpr std::string_view kCoordinationExpiries =
    "coordination_expiries_total";

// --- protocol (event journal) --------------------------------------------
inline constexpr std::string_view kJournalAppend = "journal_append_ns";
inline constexpr std::string_view kJournalRecords = "journal_records_total";

/// Histograms for the seven recognition stages, threaded into the shared
/// pipeline via RecognizerScratch (one per worker — same ownership as the
/// scratch buffers). Disarmed by default; PerceptionService arms them when
/// a registry is wired. A frame with no silhouette records stages 1-5 only.
struct RecognitionStageMetrics {
  Histogram preprocess_ns;  ///< 1: invert (+ optional blur)
  Histogram threshold_ns;   ///< 2: Otsu binarisation
  Histogram morphology_ns;  ///< 3: close + open
  Histogram components_ns;  ///< 4: largest-component silhouette
  Histogram contour_ns;     ///< 5: Moore boundary trace
  Histogram signature_ns;   ///< 6: centroid-distance signature
  Histogram match_ns;       ///< 7: SAX encoding + SignDatabase query

  [[nodiscard]] static RecognitionStageMetrics from(MetricsRegistry& registry) {
    RecognitionStageMetrics metrics;
    metrics.preprocess_ns = registry.histogram(kRecognitionPreprocess);
    metrics.threshold_ns = registry.histogram(kRecognitionThreshold);
    metrics.morphology_ns = registry.histogram(kRecognitionMorphology);
    metrics.components_ns = registry.histogram(kRecognitionComponents);
    metrics.contour_ns = registry.histogram(kRecognitionContour);
    metrics.signature_ns = registry.histogram(kRecognitionSignature);
    metrics.match_ns = registry.histogram(kRecognitionMatch);
    return metrics;
  }
};

}  // namespace hdc::telemetry
