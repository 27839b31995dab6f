#include "telemetry/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

namespace hdc::telemetry {

namespace {

/// Chrome trace-event timestamps are microseconds. We keep nanosecond
/// precision with deterministic, locale-free integer formatting (never a
/// double — doubles would make the pinned-JSON test flaky): 12345 ns
/// renders as "12.345".
std::string format_us(std::uint64_t ns) {
  std::ostringstream out;
  out << ns / 1000 << '.';
  const std::uint64_t frac = ns % 1000;
  out << static_cast<char>('0' + frac / 100)
      << static_cast<char>('0' + frac / 10 % 10)
      << static_cast<char>('0' + frac % 10);
  return out.str();
}

std::string format_hex_id(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const auto nibble = static_cast<unsigned>(id >> shift & 0xF);
    if (nibble != 0) started = true;
    if (started) out.push_back(kDigits[nibble]);
  }
  if (!started) out.push_back('0');
  return out;
}

/// One async begin/end pair. The Chrome format matches async events by
/// (cat, id): using the STAGE NAME as the category gives every stage its
/// own balanced track per frame, so stages whose intervals overlap (e.g.
/// submit and queue_wait) can never be mis-nested by the viewer.
void append_async_pair(std::ostringstream& out, const char* cat,
                       const std::string& id, std::uint32_t pid,
                       const std::string& name, const char* args_key,
                       const char* args_value, std::uint64_t t_start_ns,
                       std::uint64_t t_end_ns, bool& first) {
  const char* sep = first ? "\n" : ",\n";
  first = false;
  out << sep << R"({"ph":"b","cat":")" << cat << R"(","id":")" << id
      << R"(","pid":)" << pid << R"(,"tid":0,"ts":)" << format_us(t_start_ns)
      << R"(,"name":")" << name << '"';
  if (args_key != nullptr) {
    out << R"(,"args":{")" << args_key << R"(":")" << args_value << R"("})";
  }
  out << '}';
  out << ",\n"
      << R"({"ph":"e","cat":")" << cat << R"(","id":")" << id
      << R"(","pid":)" << pid << R"(,"tid":0,"ts":)" << format_us(t_end_ns)
      << R"(,"name":")" << name << "\"}";
}

}  // namespace

std::vector<FrameTrace> assemble_frames(std::vector<TraceEvent> events) {
  std::unordered_map<std::uint64_t, FrameTrace> by_id;
  by_id.reserve(events.size());
  for (TraceEvent& event : events) {
    FrameTrace& frame = by_id[event.trace_id];
    if (frame.events.empty()) {
      frame.trace_id = event.trace_id;
      frame.stream_id = event.stream_id;
      frame.sequence = event.sequence;
      frame.t_start_ns = event.t_start_ns;
      frame.t_end_ns = event.t_end_ns;
    } else {
      frame.t_start_ns = std::min(frame.t_start_ns, event.t_start_ns);
      frame.t_end_ns = std::max(frame.t_end_ns, event.t_end_ns);
    }
    if (is_terminal(event.outcome)) frame.terminal = event.outcome;
    frame.events.push_back(event);
  }

  std::vector<FrameTrace> frames;
  frames.reserve(by_id.size());
  for (auto& [id, frame] : by_id) {
    std::sort(frame.events.begin(), frame.events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.t_start_ns != b.t_start_ns)
                  return a.t_start_ns < b.t_start_ns;
                return a.stage < b.stage;
              });
    frames.push_back(std::move(frame));
  }
  std::sort(frames.begin(), frames.end(),
            [](const FrameTrace& a, const FrameTrace& b) {
              if (a.stream_id != b.stream_id) return a.stream_id < b.stream_id;
              return a.sequence < b.sequence;
            });
  return frames;
}

std::string export_chrome_trace(const std::vector<TraceEvent>& events) {
  const std::vector<FrameTrace> frames = assemble_frames(events);

  std::ostringstream out;
  out << R"({"displayTimeUnit":"ms","traceEvents":[)";
  bool first = true;

  // One process per stream, named so the Perfetto track list reads
  // "drone-stream N" instead of bare pids.
  std::map<std::uint32_t, bool> streams;
  for (const FrameTrace& frame : frames) streams.emplace(frame.stream_id, true);
  for (const auto& [stream_id, unused] : streams) {
    const char* sep = first ? "\n" : ",\n";
    first = false;
    out << sep
        << R"({"ph":"M","pid":)" << stream_id
        << R"(,"tid":0,"ts":0,"name":"process_name","args":{"name":"drone-stream )"
        << stream_id << R"("}})";
  }

  for (const FrameTrace& frame : frames) {
    const std::string id = format_hex_id(frame.trace_id);
    std::ostringstream frame_name;
    frame_name << "frame " << frame.sequence;
    append_async_pair(out, "frame", id, frame.stream_id, frame_name.str(),
                      "terminal", to_string(frame.terminal), frame.t_start_ns,
                      frame.t_end_ns, first);
    for (const TraceEvent& event : frame.events) {
      append_async_pair(out, to_string(event.stage), id, frame.stream_id,
                        to_string(event.stage), "outcome",
                        to_string(event.outcome), event.t_start_ns,
                        event.t_end_ns, first);
    }
  }

  out << "\n]}\n";
  return out.str();
}

TailReport build_tail_report(const std::vector<TraceEvent>& events,
                             std::size_t worst_k, std::uint64_t min_total_ns) {
  TailReport report;
  report.threshold_ns = min_total_ns;

  std::vector<FrameTrace> frames = assemble_frames(events);
  std::vector<TailFrame> candidates;
  for (const FrameTrace& frame : frames) {
    // A closed/errored trace never completed: it cannot be an exemplar
    // for a completion-latency percentile.
    if (is_terminal(frame.terminal)) continue;
    ++report.frames_seen;
    if (frame.total_ns() < min_total_ns) continue;

    TailFrame tail;
    tail.trace_id = frame.trace_id;
    tail.stream_id = frame.stream_id;
    tail.sequence = frame.sequence;
    tail.total_ns = frame.total_ns();

    std::uint64_t per_stage[kTraceStageCount] = {};
    for (const TraceEvent& event : frame.events) {
      per_stage[static_cast<std::size_t>(event.stage)] +=
          event.t_end_ns - event.t_start_ns;
    }
    for (std::size_t s = 0; s < kTraceStageCount; ++s) {
      if (per_stage[s] == 0) continue;
      tail.breakdown.push_back({static_cast<TraceStage>(s), per_stage[s]});
    }
    std::stable_sort(tail.breakdown.begin(), tail.breakdown.end(),
                     [](const StageShare& a, const StageShare& b) {
                       return a.ns > b.ns;
                     });
    if (!tail.breakdown.empty()) {
      tail.dominant_stage = tail.breakdown.front().stage;
      tail.dominant_ns = tail.breakdown.front().ns;
    }
    candidates.push_back(std::move(tail));
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const TailFrame& a, const TailFrame& b) {
                     return a.total_ns > b.total_ns;
                   });
  if (candidates.size() > worst_k) candidates.resize(worst_k);
  report.worst = std::move(candidates);
  return report;
}

std::string TailReport::render_json() const {
  std::ostringstream out;
  out << "{\"frames_seen\": " << frames_seen
      << ", \"threshold_ns\": " << threshold_ns << ", \"worst\": [";
  for (std::size_t i = 0; i < worst.size(); ++i) {
    const TailFrame& frame = worst[i];
    if (i != 0) out << ", ";
    out << "{\"stream\": " << frame.stream_id
        << ", \"sequence\": " << frame.sequence
        << ", \"total_ns\": " << frame.total_ns
        << ", \"dominant_stage\": \"" << to_string(frame.dominant_stage)
        << "\", \"dominant_ns\": " << frame.dominant_ns
        << ", \"breakdown\": {";
    for (std::size_t j = 0; j < frame.breakdown.size(); ++j) {
      if (j != 0) out << ", ";
      out << '"' << to_string(frame.breakdown[j].stage)
          << "\": " << frame.breakdown[j].ns;
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

}  // namespace hdc::telemetry
