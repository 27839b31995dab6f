// Canonical metric names for the pipeline, so services, benches and tests
// agree on spelling. Naming scheme (docs/OBSERVABILITY.md):
//
//   <layer>_<stage>_ns        latency histogram (steady-clock nanoseconds)
//   <layer>_<what>_total      monotonic counter
//   <layer>_<what>            gauge (queue depths)
//
// Counters under the `interaction_` / `coordination_` layers that are
// incremented only while a worker processes an admitted input are the
// REPLAY-DETERMINISTIC set (protocol::replay_deterministic_counters()):
// their totals are a pure function of the recorded input sequence, so a
// journal snapshot of them must reproduce bit-exactly on replay.
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
inline constexpr std::string_view kPerceptionFramesDropped =
    "perception_frames_dropped_total";
inline constexpr std::string_view kPerceptionFramesRejected =
    "perception_frames_rejected_total";
inline constexpr std::string_view kPerceptionQueueDepth = "perception_queue_depth";

// --- recognition (inside the shared pipeline; per prepare/match/finalize) -
inline constexpr std::string_view kRecognitionPrepare = "recognition_prepare_ns";
inline constexpr std::string_view kRecognitionMatch = "recognition_match_ns";
inline constexpr std::string_view kRecognitionFinalize = "recognition_finalize_ns";

// --- interaction (fuser + dialogue FSM worker) ---------------------------
inline constexpr std::string_view kInteractionFuse = "interaction_fuse_ns";
inline constexpr std::string_view kInteractionTransition = "interaction_transition_ns";
inline constexpr std::string_view kInteractionObservations =
    "interaction_observations_total";
inline constexpr std::string_view kInteractionEvents = "interaction_events_total";
inline constexpr std::string_view kInteractionActions = "interaction_actions_total";
inline constexpr std::string_view kInteractionOutcomes = "interaction_outcomes_total";
inline constexpr std::string_view kInteractionShed = "interaction_shed_total";
inline constexpr std::string_view kInteractionQueueDepth = "interaction_queue_depth";

// --- coordination (arbiter + grant registry worker) ----------------------
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
inline constexpr std::string_view kCoordinationQueueDepth = "coordination_queue_depth";

// --- protocol (event journal) --------------------------------------------
inline constexpr std::string_view kJournalAppend = "journal_append_ns";
inline constexpr std::string_view kJournalRecords = "journal_records_total";

/// Stage-timer handles threaded into the shared recognition pipeline via
/// RecognizerScratch (one per worker — same ownership as the scratch
/// buffers). Disarmed by default; PerceptionService arms them when a
/// registry is wired.
struct RecognitionStageMetrics {
  Histogram prepare_ns;   ///< stages 1-6 (imaging -> signature) per frame
  Histogram match_ns;     ///< SignDatabase query per frame
  Histogram finalize_ns;  ///< match -> RecognitionResult per frame

  [[nodiscard]] static RecognitionStageMetrics from(MetricsRegistry& registry) {
    RecognitionStageMetrics metrics;
    metrics.prepare_ns = registry.histogram(kRecognitionPrepare);
    metrics.match_ns = registry.histogram(kRecognitionMatch);
    metrics.finalize_ns = registry.histogram(kRecognitionFinalize);
    return metrics;
  }
};

}  // namespace hdc::telemetry
