// End-to-end causal tracing: per-frame trace identity, fixed-size trace
// events, a Chrome/Perfetto exporter and tail-latency attribution.
//
// PR 8's histograms say THAT a p99 is high; this layer says WHICH frame,
// stage, queue or arbitration made it high. The design rests on one
// decision: a frame's trace identity is a PURE FUNCTION of the identity
// the pipeline already carries everywhere — (stream_id, sequence) —
//
//   trace_id = ((stream_id + 1) & 0xFFFF) << 48 | (sequence & 2^48-1)
//
// so the context "propagates" by construction: StreamResult carries it
// explicitly, and every downstream record (SignEvent onset/end sequences,
// AckAction {stream_id, tick}, OutcomeRecord {stream_id, final_sequence},
// FleetEvent {drone_id, sequence}) reconstitutes the identical context
// from the fields it already has. No wire format changes, no bytes added
// to journaled records, and journal replay mints bit-identical ids —
// tracing can stay armed through a replay without perturbing it.
//
// Stages append fixed-size TraceEvent records into a FlightRecorder
// (telemetry/flight_recorder.hpp) — bounded, lock-free, overwrite-oldest.
// On top of the collected events:
//   - export_chrome_trace(): Chrome trace-event JSON, openable in
//     ui.perfetto.dev — one process track per stream, one async track per
//     stage, frame envelopes enclosing the stage slices;
//   - build_tail_report(): names, for the worst-k frames, which stage or
//     queue-wait dominated the end-to-end latency (the exemplars behind a
//     p99).
//
// The enforcing tests are tests/telemetry_trace_test.cpp and, on a live
// three-service run, tests/telemetry_pipeline_test.cpp; the cost gate is
// bench/bench_telemetry_overhead.cpp's "traced" column.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hdc::telemetry {

/// Largest stream id with its own trace ids. make_trace_id keeps 16 bits of
/// stream + 1, so stream 65535 maps to 0 (the "no context" sentinel) and
/// streams s and s + 65536 would share ids. Every entry point rejects a
/// stream or drone id above this limit: PerceptionService::submit,
/// InteractionService::inject_observation, CoordinationService::register_drone
/// and the wire parser (docs/WIRE_FORMAT.md).
inline constexpr std::uint32_t kMaxTraceStreamId = 0xFFFE;

/// Largest per-stream sequence with its own trace ids. make_trace_id keeps
/// the low 48 bits of the sequence, so sequences s and s + 2^48 would share
/// ids; the wire parser and InteractionService::inject_observation reject
/// a sequence above this limit (docs/WIRE_FORMAT.md).
inline constexpr std::uint64_t kMaxTraceSequence = (std::uint64_t{1} << 48) - 1;

/// Deterministic trace identity for one frame of one stream. Never zero for
/// stream_id <= kMaxTraceStreamId (the +1 keeps stream 0 / sequence 0
/// distinguishable from "no context"), stable across live runs and journal
/// replays of the same input. The top 16 bits disambiguate streams, the low
/// 48 the per-stream sequence.
[[nodiscard]] constexpr std::uint64_t make_trace_id(
    std::uint32_t stream_id, std::uint64_t sequence) noexcept {
  return ((static_cast<std::uint64_t>(stream_id) + 1) & 0xFFFFu) << 48 |
         (sequence & kMaxTraceSequence);
}

/// The causal identity minted at PerceptionService::submit and carried (or
/// reconstituted via of()) through every later stage of the frame's life.
struct TraceContext {
  std::uint32_t stream_id{0};
  std::uint64_t sequence{0};
  std::uint64_t trace_id{0};

  [[nodiscard]] static constexpr TraceContext of(std::uint32_t stream_id,
                                                 std::uint64_t sequence) noexcept {
    return {stream_id, sequence, make_trace_id(stream_id, sequence)};
  }
};

/// Pipeline stages a trace event can belong to, in causal order.
enum class TraceStage : std::uint8_t {
  kSubmit = 0,   ///< PerceptionService::submit (admission)
  kQueueWait,    ///< shard ring residency, submit -> worker pop
  kRecognize,    ///< one frame's recognition on its shard
  kAdmit,        ///< InteractionService admission (a refusal closes here)
  kFuse,         ///< SignEventFuser::observe
  kTransition,   ///< dialogue FSM on_event/on_tick/abort
  kAck,          ///< one applied AckAction (instant)
  kOutcome,      ///< dialogue outcome decided (instant)
  kArbitrate,    ///< SessionArbiter::on_phase for the triggering event
  kGrantUpdate,  ///< GrantRegistry mutation (grant/deny/revoke/renew)
};
inline constexpr std::size_t kTraceStageCount = 10;

[[nodiscard]] constexpr const char* to_string(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::kSubmit: return "submit";
    case TraceStage::kQueueWait: return "queue_wait";
    case TraceStage::kRecognize: return "recognize";
    case TraceStage::kAdmit: return "admit";
    case TraceStage::kFuse: return "fuse";
    case TraceStage::kTransition: return "transition";
    case TraceStage::kAck: return "ack";
    case TraceStage::kOutcome: return "outcome";
    case TraceStage::kArbitrate: return "arbitrate";
    case TraceStage::kGrantUpdate: return "grant_update";
  }
  return "?";
}

/// Outcome code of one trace event. kClosed / kError are TERMINAL: they
/// are the last event of their trace (no trace may end open — the refusal
/// and failure paths emit them exactly where the frame dies).
enum class TraceOutcome : std::uint8_t {
  kOk = 0,    ///< stage completed normally
  kAccepted,  ///< recognition accepted the frame
  kNoMatch,   ///< recognition rejected the frame (not an error)
  kConflict,  ///< grant refused: the cell was held by another drone
  kClosed,    ///< terminal: refused because the service is stopping
  kError,     ///< terminal: the pipeline threw processing this frame
};

[[nodiscard]] constexpr const char* to_string(TraceOutcome outcome) noexcept {
  switch (outcome) {
    case TraceOutcome::kOk: return "ok";
    case TraceOutcome::kAccepted: return "accepted";
    case TraceOutcome::kNoMatch: return "no_match";
    case TraceOutcome::kConflict: return "conflict";
    case TraceOutcome::kClosed: return "closed";
    case TraceOutcome::kError: return "error";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_terminal(TraceOutcome outcome) noexcept {
  switch (outcome) {
    case TraceOutcome::kClosed:
    case TraceOutcome::kError:
      return true;
    default:
      return false;
  }
}

/// One fixed-size record in the flight recorder. Trivially copyable; the
/// recorder packs it into six u64 seqlock-protected atomics per slot.
struct TraceEvent {
  std::uint64_t trace_id{0};
  std::uint32_t stream_id{0};
  std::uint64_t sequence{0};
  TraceStage stage{TraceStage::kSubmit};
  TraceOutcome outcome{TraceOutcome::kOk};
  std::uint64_t t_start_ns{0};
  std::uint64_t t_end_ns{0};

  [[nodiscard]] bool operator==(const TraceEvent&) const = default;
};

/// All collected events of one trace_id: the frame's causal story, with
/// the envelope [t_start_ns, t_end_ns] spanning first submit to last
/// stage, and the terminal outcome if the trace ended in one.
struct FrameTrace {
  std::uint64_t trace_id{0};
  std::uint32_t stream_id{0};
  std::uint64_t sequence{0};
  std::uint64_t t_start_ns{0};
  std::uint64_t t_end_ns{0};
  TraceOutcome terminal{TraceOutcome::kOk};  ///< kOk when no terminal event
  std::vector<TraceEvent> events;            ///< sorted by (t_start, stage)

  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return t_end_ns > t_start_ns ? t_end_ns - t_start_ns : 0;
  }
};

/// Groups raw events by trace_id into per-frame stories, sorted by
/// (stream_id, sequence) — the deterministic assembly every consumer
/// (exporter, tail report, health monitor) shares.
[[nodiscard]] std::vector<FrameTrace> assemble_frames(
    std::vector<TraceEvent> events);

/// Chrome trace-event JSON (the ui.perfetto.dev / chrome://tracing
/// format): one process (pid) per stream with a process_name metadata
/// record, one async track per stage category, every frame an async
/// "frame <seq>" envelope (cat "frame", id = hex trace_id) enclosing its
/// stage slices. Timestamps are microseconds with nanosecond precision,
/// formatted deterministically — the exporter's output for a fixed event
/// set is byte-stable (pinned by tests/telemetry_trace_test.cpp).
[[nodiscard]] std::string export_chrome_trace(
    const std::vector<TraceEvent>& events);

/// Per-stage share of one tail frame's end-to-end latency.
struct StageShare {
  TraceStage stage{TraceStage::kSubmit};
  std::uint64_t ns{0};
};

/// One worst-k frame: who it was, how long it took, and which stage ate
/// the time.
struct TailFrame {
  std::uint64_t trace_id{0};
  std::uint32_t stream_id{0};
  std::uint64_t sequence{0};
  std::uint64_t total_ns{0};
  TraceStage dominant_stage{TraceStage::kSubmit};
  std::uint64_t dominant_ns{0};
  std::vector<StageShare> breakdown;  ///< per stage, descending ns
};

/// Tail-latency attribution: joins the recorder's per-frame stories
/// against a latency threshold (typically the frame->ack or submit->result
/// p99 from the histogram layer) and names the dominant stage of each of
/// the worst-k frames. Frames that ended in a terminal outcome (closed or
/// error) are excluded — they never completed, so they cannot explain a
/// completion percentile.
struct TailReport {
  std::uint64_t frames_seen{0};     ///< completed traces considered
  std::uint64_t threshold_ns{0};    ///< min_total_ns the caller filtered by
  std::vector<TailFrame> worst;     ///< descending total_ns, at most k

  /// Machine-readable rendering.
  [[nodiscard]] std::string render_json() const;
};

[[nodiscard]] TailReport build_tail_report(const std::vector<TraceEvent>& events,
                                           std::size_t worst_k,
                                           std::uint64_t min_total_ns = 0);

}  // namespace hdc::telemetry
