// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// Workloads: paced_fleet_30fps, saturate_noisy, replay_fixture (README.md).
// --trace 0 measures the end-to-end metrics with no telemetry wired.
// --trace 1 runs a quarter-length untraced pass (the tracing-overhead
// baseline), then a full traced pass with the metrics registry and flight
// recorder wired, and reports the per-layer metrics; it also writes .bench_out/<workload>_trace.json (Chrome/Perfetto) and
// .bench_out/<workload>_layers.json (every metric with its sample count).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when every correctness check passed, 1 when one failed, 2 on a
// usage or environment error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly what BENCHMARK.json lists, in the same units.
constexpr MetricSpec kEndToEnd[] = {
    {"cpu_ms_per_item", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"wall.latency_p50_ms", "ms"},
    {"wall.latency_tail_ms", "ms"},
    {"wall.throughput_per_s", "1/s"},
    {"wall.host_steal_pct", "%"},
    {"loadgen.send_lateness_p99_ms", "ms"},
    {"loadgen.submit_blocked_frac", "ratio"},
    {"perception.submit_us_p50", "us"},
    {"perception.submit_us_p99", "us"},
    {"perception.queue_wait_us_p50", "us"},
    {"perception.queue_wait_us_p99", "us"},
    {"perception.recognize_us_p50", "us"},
    {"perception.frames_per_window", "count"},
    {"perception.shard_frames_max_over_min", "ratio"},
    {"imaging.preprocess_us", "us"},
    {"imaging.threshold_us", "us"},
    {"imaging.morphology_us", "us"},
    {"imaging.components_us", "us"},
    {"imaging.contour_us", "us"},
    {"imaging.signature_us", "us"},
    {"imaging.foreground_frac", "ratio"},
    {"imaging.components_per_frame", "count"},
    {"imaging.no_silhouette_frac", "ratio"},
    {"recognition.query_us", "us"},
    {"recognition.accept_frac", "ratio"},
    {"interaction.on_result_us_p50", "us"},
    {"interaction.on_result_us_p99", "us"},
    {"interaction.result_to_ack_ms_p50", "ms"},
    {"interaction.result_to_ack_ms_p90", "ms"},
    {"interaction.ack_p50_ms", "ms"},
    {"interaction.ack_p90_ms", "ms"},
    {"interaction.fuse_us_p50", "us"},
    {"interaction.transition_us_p50", "us"},
    {"interaction.events", "count"},
    {"interaction.acks", "count"},
    {"coordination.outcome_to_grant_us_p50", "us"},
    {"coordination.arbitrations", "count"},
    {"coordination.aborts_deferred", "count"},
    {"coordination.conflicts", "count"},
    {"protocol.parse_us", "us"},
    {"protocol.replay_ms_p50", "ms"},
    {"protocol.records", "count"},
    {"telemetry.trace_overhead_pct", "%"},
    {"telemetry.trace_overhead_p50_pct", "%"},
};

struct Workload {
  const char* name;
  unsigned threads;  ///< threads the workload keeps busy
  WorkloadResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"paced_fleet_30fps", 4, &run_paced_fleet},
    {"saturate_noisy", 4, &run_saturate_noisy},
    {"replay_fixture", 2, &run_replay_fixture},
};

/// Orders `produced` by `specs`; a spec the workload did not produce is
/// reported absent. Returns false when a produced metric is unknown, carries
/// another unit, or an end-to-end metric is missing (a benchmark bug).
bool canonical(const MetricSpec* specs, std::size_t count, const std::vector<Metric>& produced,
               bool missing_is_error, std::vector<Metric>& out, std::string& error) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = std::find_if(produced.begin(), produced.end(),
                                 [&](const Metric& m) { return m.name == specs[i].name; });
    if (it == produced.end()) {
      if (missing_is_error) {
        error = std::string("metric ") + specs[i].name + " was not produced";
        return false;
      }
      out.push_back({specs[i].name, 0.0, specs[i].unit, 0,
                     "absent: this workload does not run that layer"});
      continue;
    }
    if (it->unit != specs[i].unit) {
      error = "metric " + it->name + " reported in " + it->unit + ", declared " + specs[i].unit;
      return false;
    }
    out.push_back(*it);
  }
  return true;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(metrics[i].name)
        << "\": {\"value\": " << format_number(metrics[i].value) << ", \"unit\": \""
        << json_escape(metrics[i].unit) << "\"}";
  }
  out << "}";
  return out.str();
}

std::string detail_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << "    {\"name\": \"" << json_escape(m.name) << "\", \"value\": "
        << format_number(m.value) << ", \"unit\": \"" << json_escape(m.unit)
        << "\", \"samples\": " << m.samples << ", \"note\": \"" << json_escape(m.note) << "\"}"
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "  ]";
  return out.str();
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string commit = "unknown";
  const std::string out_dir = ".bench_out";
  RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        workload_name = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--commit") {
        commit = value();
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage(argv[0]);
  }
  const auto workload = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                     [&](const Workload& w) { return workload_name == w.name; });
  if (workload == std::end(kWorkloads) || !(options.seconds > 0.0)) return usage(argv[0]);

  // --- host and build stamp ------------------------------------------------
  const unsigned hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool host_ok = hardware_threads >= workload->threads;
  std::printf("host: hardware_threads=%u build=%s compiler=%s commit=%s\n", hardware_threads,
              build_type.c_str(), PERFBENCH_CXX_COMPILER, commit.c_str());
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build (need Release)\n",
                 build_type.c_str());
    return 2;
  }
  if (!host_ok) {
    std::printf("WARNING: %s keeps %u threads busy but this host has %u hardware threads; "
                "its scaling figures do not count\n",
                workload->name, workload->threads, hardware_threads);
  }
  retain_freed_memory();
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", workload->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  WorkloadResult result;
  try {
    result = workload->run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name, e.what());
    return 2;
  }

  std::vector<Metric> reported;
  std::string error;
  const bool ok =
      options.trace
          ? canonical(kPerLayer, std::size(kPerLayer), result.per_layer, false, reported, error)
          : canonical(kEndToEnd, std::size(kEndToEnd), result.end_to_end, true, reported,
                      error);
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  std::printf("end-to-end (untraced pass):\n");
  print_metrics(std::cout, result.end_to_end);
  if (options.trace) {
    std::printf("per-layer (traced pass):\n");
    print_metrics(std::cout, reported);
  }
  const double failed_frac =
      static_cast<double>(result.failed) / static_cast<double>(std::max<std::uint64_t>(
                                               result.attempted, 1));
  std::printf("correctness: attempted=%llu failed=%llu failed_frac=%g\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), failed_frac);
  for (const std::string& failure : result.failures) std::printf("  FAIL %s\n", failure.c_str());

  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string base = out_dir + "/" + workload->name;
    std::ofstream(base + "_trace.json") << result.chrome_trace;
    std::ofstream layers(base + "_layers.json");
    layers << "{\n  \"workload\": \"" << workload->name << "\",\n  \"seed\": " << options.seed
           << ",\n  \"seconds\": " << format_number(options.seconds)
           << ",\n  \"host\": {\"hardware_threads\": " << hardware_threads
           << ", \"build_type\": \"" << json_escape(build_type) << "\", \"compiler\": \""
           << json_escape(PERFBENCH_CXX_COMPILER) << "\", \"commit\": \"" << json_escape(commit)
           << "\", \"host_ok\": " << (host_ok ? "true" : "false")
           << "},\n  \"end_to_end\": " << detail_json(result.end_to_end)
           << ",\n  \"per_layer\": " << detail_json(reported) << "\n}\n";
    std::printf("wrote %s_trace.json and %s_layers.json\n", base.c_str(), base.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), metrics_json(reported).c_str());
  return result.correct ? 0 : 1;
}
