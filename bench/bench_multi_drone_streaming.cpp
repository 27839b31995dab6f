// Multi-drone streaming throughput & latency for PerceptionService.
//
// N simulated drone cameras (MultiDroneFeed) each push a deterministic
// frame script into the service from their own producer thread; the bench
// reports, for every (streams, shards) cell of the test matrix:
//
//   - aggregate frames/sec (first submit -> last delivery),
//   - p50/p99 per-frame latency (submit -> result callback, queueing
//     included — this is what a live feed actually experiences),
//   - a bit-identity gate: every stream's delivered payloads must equal the
//     sequential SaxSignRecognizer run over the same frames, in order,
//   - the cell's OWN telemetry: the registry is snapshotted around each
//     cell and per-cell numbers come from Snapshot::delta(), so a small
//     cell's percentiles are never polluted by the larger cells that ran
//     before it in the same process.
//
// The matrix deliberately includes streams > shards and shards > streams —
// completing every cell doubles as the no-deadlock check the streaming
// design promises.
//
// With --trace PATH the largest cell additionally runs with a causal
// FlightRecorder wired in; the bench exports the collected trace as
// Chrome/Perfetto JSON to PATH, attributes the cell's tail latency to its
// dominant stage (TailReport), and evaluates fleet health SLOs over the
// same events — all of which land in the --json artifact too.
//
// Flags: --smoke (small frame count for CI), --frames N (per stream),
// --json PATH (machine-readable results), --trace PATH (Chrome trace of
// the largest cell).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/health.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stage_names.hpp"
#include "telemetry/trace.hpp"
#include "util/statistics.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hdc;
using recognition::DatabaseBuildOptions;
using recognition::PerceptionService;
using recognition::PerceptionServiceConfig;
using recognition::RecognitionResult;
using recognition::RecognizerConfig;
using recognition::SaxSignRecognizer;
using recognition::StreamResult;
using Clock = std::chrono::steady_clock;

bool payloads_equal(const RecognitionResult& a, const RecognitionResult& b) {
  return a.accepted == b.accepted && a.sign == b.sign &&
         a.reject_reason == b.reject_reason &&
         std::memcmp(&a.distance, &b.distance, sizeof(double)) == 0 &&
         std::memcmp(&a.margin, &b.margin, sizeof(double)) == 0 &&
         a.sax_word == b.sax_word;
}

struct CellResult {
  std::size_t streams{0};
  std::size_t shards{0};
  std::size_t frames_per_stream{0};
  double aggregate_fps{0.0};
  double p50_ms{0.0};
  double p99_ms{0.0};
  bool identical{false};
  /// This cell's own telemetry: after-snapshot minus before-snapshot.
  telemetry::MetricsSnapshot delta;
};

/// One matrix cell: S producer threads stream their scripts into a service
/// with K shards; returns throughput/latency plus the identity verdict.
/// When `recorder` is wired the cell is causally traced, and per-stream
/// accounting + one shard-queue sample are captured for the health report.
CellResult run_cell(const SaxSignRecognizer& reference,
                    const std::vector<std::vector<imaging::GrayImage>>& scripts,
                    const std::vector<std::vector<RecognitionResult>>& expected,
                    std::size_t shards, telemetry::MetricsRegistry* metrics,
                    telemetry::FlightRecorder* recorder = nullptr,
                    telemetry::FleetHealthMonitor* monitor = nullptr,
                    std::vector<telemetry::StreamAccounting>* accounting = nullptr) {
  const std::size_t streams = scripts.size();
  const std::size_t frames_per_stream = scripts.front().size();

  // Per (stream, sequence) cells, preallocated so callback threads write
  // disjoint slots without synchronisation.
  std::vector<std::vector<Clock::time_point>> submit_at(streams);
  std::vector<std::vector<Clock::time_point>> done_at(streams);
  std::vector<std::vector<RecognitionResult>> delivered(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    submit_at[s].resize(frames_per_stream);
    done_at[s].resize(frames_per_stream);
    delivered[s].resize(frames_per_stream);
  }

  CellResult cell;
  cell.streams = streams;
  cell.shards = shards;
  cell.frames_per_stream = frames_per_stream;

  const telemetry::MetricsSnapshot before = metrics->snapshot();
  {
    PerceptionServiceConfig service_config;
    service_config.shards = shards;
    service_config.queue_capacity = 32;
    service_config.overflow = util::OverflowPolicy::kBlock;  // lossless run
    service_config.metrics = metrics;  // telemetry ON — the shipped config
    service_config.recorder = recorder;
    PerceptionService service(
        reference.config(), reference.database_ptr(),
        [&](const StreamResult& r) {
          delivered[r.stream_id][r.sequence] = r.result;
          done_at[r.stream_id][r.sequence] = Clock::now();
        },
        service_config);

    util::Stopwatch wall;
    std::vector<std::thread> producers;
    producers.reserve(streams);
    for (std::size_t s = 0; s < streams; ++s) {
      producers.emplace_back([&, s] {
        for (std::size_t i = 0; i < frames_per_stream; ++i) {
          submit_at[s][i] = Clock::now();
          service.submit(static_cast<std::uint32_t>(s), scripts[s][i]);
        }
      });
    }
    for (std::thread& t : producers) t.join();
    service.drain();
    const double seconds = wall.elapsed_seconds();
    cell.aggregate_fps =
        static_cast<double>(streams * frames_per_stream) / seconds;

    if (accounting != nullptr) {
      accounting->clear();
      for (std::size_t s = 0; s < streams; ++s) {
        const recognition::StreamStats stats =
            service.stream_stats(static_cast<std::uint32_t>(s));
        accounting->push_back({static_cast<std::uint32_t>(s), stats.submitted,
                               stats.delivered, stats.dropped, stats.rejected});
      }
    }
    if (monitor != nullptr) {
      std::vector<telemetry::QueueObservation> queues;
      const std::vector<recognition::ShardGauge> gauges = service.shard_gauges();
      for (std::size_t k = 0; k < gauges.size(); ++k) {
        queues.push_back({k, gauges[k].depth, gauges[k].popped});
      }
      monitor->observe_queues(queues);
    }
  }  // service stops + joins here
  cell.delta = metrics->snapshot().delta(before);

  std::vector<double> latencies_ms;
  latencies_ms.reserve(streams * frames_per_stream);
  for (std::size_t s = 0; s < streams; ++s) {
    for (std::size_t i = 0; i < frames_per_stream; ++i) {
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(done_at[s][i] - submit_at[s][i])
              .count());
    }
  }
  cell.p50_ms = util::percentile(latencies_ms, 50.0);
  cell.p99_ms = util::percentile(latencies_ms, 99.0);

  cell.identical = true;
  for (std::size_t s = 0; cell.identical && s < streams; ++s) {
    for (std::size_t i = 0; cell.identical && i < frames_per_stream; ++i) {
      cell.identical = payloads_equal(delivered[s][i], expected[s][i]);
    }
  }
  return cell;
}

void write_stage_array(std::ofstream& out,
                       const telemetry::MetricsSnapshot& snapshot,
                       const char* indent) {
  bool first = true;
  for (const telemetry::HistogramSnapshot& h : snapshot.histograms) {
    if (h.count == 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << indent << "{\"name\": \"" << h.name << "\", \"count\": " << h.count
        << ", \"p50_ns\": " << h.percentile(0.50)
        << ", \"p99_ns\": " << h.percentile(0.99) << ", \"max_ns\": " << h.max
        << "}";
  }
  out << "\n";
}

void write_json(const std::string& path, const std::vector<CellResult>& cells,
                double sequential_fps, std::size_t hardware_threads,
                const telemetry::MetricsSnapshot& snapshot,
                const std::string& tail_json, const std::string& health_json) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for JSON output\n";
    return;
  }
  out << "{\n  \"bench\": \"multi_drone_streaming\",\n"
      << "  \"hardware_threads\": " << hardware_threads << ",\n"
      << "  \"sequential_fps\": " << sequential_fps << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    {\"streams\": " << c.streams << ", \"shards\": " << c.shards
        << ", \"frames_per_stream\": " << c.frames_per_stream
        << ", \"aggregate_fps\": " << c.aggregate_fps
        << ", \"p50_ms\": " << c.p50_ms << ", \"p99_ms\": " << c.p99_ms
        << ", \"bit_identical\": " << (c.identical ? "true" : "false")
        << ",\n     \"telemetry\": {\"stages\": [\n";
    write_stage_array(out, c.delta, "       ");
    out << "     ]}}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // Aggregate pipeline telemetry across the whole matrix (every cell runs
  // with the registry wired — telemetry on is the configuration shipped,
  // and the one the overhead gate vouches for). Per-cell numbers above are
  // Snapshot::delta() slices of this same registry.
  out << "  \"telemetry\": {\n    \"stages\": [\n";
  write_stage_array(out, snapshot, "      ");
  out << "    ],\n    \"counters\": [\n";
  bool first = true;
  for (const telemetry::CounterSnapshot& c : snapshot.counters) {
    if (!first) out << ",\n";
    first = false;
    out << "      {\"name\": \"" << c.name << "\", \"value\": " << c.value
        << "}";
  }
  out << "\n    ]\n  }";
  if (!tail_json.empty()) {
    out << ",\n  \"tail_attribution\": " << tail_json;
  }
  if (!health_json.empty()) {
    out << ",\n  \"health\": " << health_json;
  }
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t frames_per_stream = 48;
  std::string json_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      frames_per_stream = 8;
    } else if (arg == "--frames" && i + 1 < argc) {
      frames_per_stream = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--frames N] [--json PATH] [--trace PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> stream_counts = {1, 2, 4, 8};
  const std::vector<std::size_t> shard_counts = {1, 2, 4};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::cout << "building canonical database + rendering feed scripts ("
            << frames_per_stream << " frames/stream)...\n";
  const SaxSignRecognizer reference(RecognizerConfig{}, DatabaseBuildOptions{});

  // Scripts and sequential ground truth for the largest cohort; smaller
  // cohorts reuse the prefix. The feed is deterministic per (stream, tick).
  const std::size_t max_streams = stream_counts.back();
  signs::MultiDroneFeedConfig feed_config;
  feed_config.streams = max_streams;
  const signs::MultiDroneFeed feed(feed_config);
  std::vector<std::vector<imaging::GrayImage>> scripts(max_streams);
  std::vector<std::vector<RecognitionResult>> expected(max_streams);
  for (std::size_t s = 0; s < max_streams; ++s) {
    scripts[s] = feed.prerender(s, frames_per_stream);
    expected[s].reserve(frames_per_stream);
    for (const imaging::GrayImage& frame : scripts[s]) {
      expected[s].push_back(reference.recognize(frame));
    }
  }

  // Sequential baseline: one recogniser, every frame of the full cohort.
  double seq_seconds = 0.0;
  {
    util::Stopwatch watch;
    for (std::size_t s = 0; s < max_streams; ++s) {
      for (const imaging::GrayImage& frame : scripts[s]) {
        (void)reference.recognize(frame);
      }
    }
    seq_seconds = watch.elapsed_seconds();
  }
  const double sequential_fps =
      static_cast<double>(max_streams * frames_per_stream) / seq_seconds;

  // Causal tracing of the largest cell only: the recorder keeps the whole
  // cell (streams * frames * 3 stages) within one lane ring per thread.
  telemetry::FlightRecorder recorder(
      std::max<std::size_t>(4096, max_streams * frames_per_stream * 4));
  telemetry::FleetHealthMonitor monitor;
  std::vector<telemetry::StreamAccounting> traced_accounting;
  const bool tracing = !trace_path.empty();
  double traced_p99_ms = 0.0;

  util::TextTable table({"streams", "shards", "aggregate fps", "vs sequential",
                         "p50 ms", "p99 ms", "bit-identical"});
  std::vector<CellResult> cells;
  telemetry::MetricsRegistry metrics;
  bool all_identical = true;
  for (const std::size_t streams : stream_counts) {
    const std::vector<std::vector<imaging::GrayImage>> cohort_scripts(
        scripts.begin(), scripts.begin() + static_cast<std::ptrdiff_t>(streams));
    const std::vector<std::vector<RecognitionResult>> cohort_expected(
        expected.begin(), expected.begin() + static_cast<std::ptrdiff_t>(streams));
    for (const std::size_t shards : shard_counts) {
      const bool traced_cell = tracing && streams == stream_counts.back() &&
                               shards == shard_counts.back();
      const CellResult cell = run_cell(
          reference, cohort_scripts, cohort_expected, shards, &metrics,
          traced_cell ? &recorder : nullptr, traced_cell ? &monitor : nullptr,
          traced_cell ? &traced_accounting : nullptr);
      if (traced_cell) traced_p99_ms = cell.p99_ms;
      all_identical = all_identical && cell.identical;
      table.add_row({std::to_string(cell.streams), std::to_string(cell.shards),
                     util::fmt(cell.aggregate_fps, 1),
                     util::fmt(cell.aggregate_fps / sequential_fps, 2) + "x",
                     util::fmt(cell.p50_ms, 2), util::fmt(cell.p99_ms, 2),
                     cell.identical ? "yes" : "NO"});
      cells.push_back(cell);
    }
  }

  std::cout << "\n--- multi-drone streaming (" << frames_per_stream
            << " frames/stream, block policy, queue=32/shard) ---\n";
  table.print(std::cout);
  std::cout << "sequential baseline: " << util::fmt(sequential_fps, 1)
            << " fps; hardware threads: " << hw << "\n";
  std::cout << "matrix includes streams > shards and shards > streams; "
               "completion of every cell is the no-deadlock gate\n";

  const telemetry::MetricsSnapshot snapshot = metrics.snapshot();
  const telemetry::HistogramSnapshot* recognize =
      snapshot.find_histogram(telemetry::kPerceptionRecognize);
  if (recognize != nullptr && recognize->count > 0) {
    std::cout << "telemetry (whole matrix): recognize p50 "
              << recognize->percentile(0.50) / 1000 << " us, p99 "
              << recognize->percentile(0.99) / 1000 << " us over "
              << recognize->count << " frames\n";
  }

  std::string tail_json;
  std::string health_json;
  if (tracing) {
    const std::vector<telemetry::TraceEvent> events = recorder.collect();
    std::ofstream trace_out(trace_path);
    if (!trace_out) {
      std::cerr << "cannot open " << trace_path << " for trace output\n";
      return 2;
    }
    trace_out << telemetry::export_chrome_trace(events);
    std::cout << "wrote Chrome trace of the " << stream_counts.back() << "x"
              << shard_counts.back() << " cell (" << events.size()
              << " events) to " << trace_path << "\n";

    // Attribute the traced cell's tail: which stage dominates the frames
    // around and beyond the cell's measured p99? The bench measures
    // latency from the producer's clock just before submit(), while the
    // trace envelope opens inside submit — so the threshold takes 90 % of
    // the measured p99 to keep the worst frames inside the filter.
    const auto threshold_ns =
        static_cast<std::uint64_t>(traced_p99_ms * 1'000'000.0 * 0.9);
    const telemetry::TailReport tail =
        telemetry::build_tail_report(events, 8, threshold_ns);
    tail_json = tail.render_json();
    for (const telemetry::TailFrame& frame : tail.worst) {
      std::cout << "tail: stream " << frame.stream_id << " seq "
                << frame.sequence << " total " << frame.total_ns / 1000
                << " us dominated by " << to_string(frame.dominant_stage)
                << " (" << frame.dominant_ns / 1000 << " us)\n";
    }

    const telemetry::HealthReport health =
        monitor.evaluate(events, traced_accounting);
    health_json = health.render_json();
    std::cout << health.render_text();
  }

  if (!json_path.empty()) {
    write_json(json_path, cells, sequential_fps, hw, snapshot, tail_json,
               health_json);
    std::cout << "wrote " << json_path << "\n";
  }

  if (!all_identical) {
    std::cout << "FAIL: streamed payloads diverge from sequential recognition\n";
    return 1;
  }
  std::cout << "streamed results bit-identical to per-stream sequential: yes\n";
  return 0;
}
