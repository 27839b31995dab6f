// T-LAT — the paper's timing measurements (§IV): "recognition times for
// [0 deg, 65 deg] are 38 ms and 27 ms respectively" (un-optimised Python +
// OpenCV on an i7-7660U), with the prediction that "optimised bare-metal C
// code [can] easily achieve 30 frames-per-second (fps) and, with hardware
// offloading, under 60 fps".
//
// This bench measures the C++ pipeline end-to-end at the same two view
// geometries and on perfbench saturate_noisy's noisy, cluttered frame pool,
// breaks the time down per stage from the seven recognition stage
// histograms of a telemetry::MetricsRegistry, and reports the achieved fps
// against the paper's 30/60 fps targets.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "recognition/recognizer.hpp"
#include "signs/multi_drone_feed.hpp"
#include "signs/scene.hpp"
#include "telemetry/stage_names.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hdc;
using recognition::DatabaseBuildOptions;
using recognition::RecognitionResult;
using recognition::RecognizerConfig;
using recognition::RecognizerScratch;
using recognition::SaxSignRecognizer;

/// One row of the stage breakdown: a frame pool, cycled over kFrames.
struct StageCase {
  std::string title;
  std::vector<imaging::GrayImage> pool;
  const char* paper_ms;  ///< the paper's Python time at this geometry, or null
};

/// saturate_noisy's frame pool: 12 streams x 8 frames of the multi-drone
/// feed with sigma = 25 sensor noise and 8 clutter blobs, seed 1.
std::vector<imaging::GrayImage> noisy_pool() {
  signs::MultiDroneFeedConfig config;
  config.streams = 12;
  config.render.noise_stddev = 25.0;
  config.render.clutter_count = 8;
  const signs::MultiDroneFeed feed(config);
  util::Rng rng(1);
  std::vector<imaging::GrayImage> pool;
  for (std::size_t s = 0; s < config.streams; ++s) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const signs::FramePlan plan = feed.plan(s, i);
      pool.push_back(signs::render_sign(plan.sign, plan.view, config.render, &rng));
    }
  }
  return pool;
}

void print_stage_breakdown() {
  const SaxSignRecognizer recognizer(RecognizerConfig{}, DatabaseBuildOptions{});
  std::vector<StageCase> cases;
  for (const double azimuth : {0.0, 65.0}) {
    cases.push_back(
        {"azimuth " + util::fmt(azimuth, 0) + " deg",
         {signs::render_sign(signs::HumanSign::kNo, {5.0, 3.0, azimuth}, {})},
         azimuth == 0.0 ? "38" : "27"});
  }
  cases.push_back({"noisy pool (sigma 25, 8 clutter blobs, seed 1, 96 frames cycled)",
                   noisy_pool(), nullptr});
  std::cout << "--- per-stage latency at the paper's two geometries and on noisy "
               "frames ---\n";
  for (const StageCase& c : cases) {
    // The service hot path: one warm scratch, stage histograms armed from a
    // registry of its own.
    RecognizerScratch scratch;
    RecognitionResult result;
    for (const imaging::GrayImage& frame : c.pool) {
      recognize_frame_into(recognizer.config(), recognizer.database(), frame, scratch,
                           result);
    }
    telemetry::MetricsRegistry registry;
    scratch.metrics = telemetry::RecognitionStageMetrics::from(registry);
    constexpr int kFrames = 200;
    util::Stopwatch watch;
    for (int i = 0; i < kFrames; ++i) {
      recognize_frame_into(recognizer.config(), recognizer.database(),
                           c.pool[static_cast<std::size_t>(i) % c.pool.size()], scratch,
                           result);
      benchmark::DoNotOptimize(result);
    }
    const double total_ms = watch.elapsed_ms() / kFrames;

    std::cout << "\n" << c.title << " (mean of " << kFrames << " frames):\n";
    const telemetry::MetricsSnapshot snapshot = registry.snapshot();
    util::TextTable table({"stage", "mean ms", "share %"});
    for (const std::string_view name : telemetry::kRecognitionStages) {
      const telemetry::HistogramSnapshot* stage = snapshot.find_histogram(name);
      const double mean_ms = stage->count == 0
                                 ? 0.0
                                 : static_cast<double>(stage->sum) / 1e6 /
                                       static_cast<double>(stage->count);
      table.add_row({std::string(name), util::fmt(mean_ms, 3),
                     util::fmt(100.0 * mean_ms / total_ms, 1)});
    }
    table.add_row({"TOTAL", util::fmt(total_ms, 3), "100.0"});
    table.print(std::cout);
    std::cout << "=> " << util::fmt(1000.0 / total_ms, 1) << " fps";
    if (c.paper_ms != nullptr) {
      std::cout << "  (paper: Python " << c.paper_ms << " ms; targets: 30 fps plain C, "
                << "60 fps with offload)";
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

// google-benchmark registrations for calibrated statistics.

void BM_EndToEnd_Az0(benchmark::State& state) {
  static const SaxSignRecognizer recognizer{RecognizerConfig{}, DatabaseBuildOptions{}};
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {5.0, 3.0, 0.0}, {});
  for (auto _ : state) benchmark::DoNotOptimize(recognizer.recognize(frame));
}
BENCHMARK(BM_EndToEnd_Az0)->Unit(benchmark::kMillisecond);

void BM_EndToEnd_Az65(benchmark::State& state) {
  static const SaxSignRecognizer recognizer{RecognizerConfig{}, DatabaseBuildOptions{}};
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {5.0, 3.0, 65.0}, {});
  for (auto _ : state) benchmark::DoNotOptimize(recognizer.recognize(frame));
}
BENCHMARK(BM_EndToEnd_Az65)->Unit(benchmark::kMillisecond);

void BM_SymbolicOnly(benchmark::State& state) {
  // The "computationally cheap" tail of the pipeline (PAA + SAX + search),
  // isolated: this is what would run on recognition hardware offload.
  static const SaxSignRecognizer recognizer{RecognizerConfig{}, DatabaseBuildOptions{}};
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {5.0, 3.0, 0.0}, {});
  const auto signature = recognizer.extract_signature(frame);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recognizer.database().query(signature, true));
  }
}
BENCHMARK(BM_SymbolicOnly)->Unit(benchmark::kMicrosecond);

void BM_FrameResolutionSweep(benchmark::State& state) {
  // End-to-end cost vs camera resolution (the low-cost-drone constraint).
  const int width = static_cast<int>(state.range(0));
  RecognizerConfig config;
  DatabaseBuildOptions db;
  db.render.width = width;
  db.render.height = width * 3 / 4;
  config.min_silhouette_area = static_cast<std::size_t>(40.0 * width / 480.0);
  const SaxSignRecognizer recognizer(config, db);
  signs::RenderOptions render = db.render;
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, 0.0}, render);
  for (auto _ : state) benchmark::DoNotOptimize(recognizer.recognize(frame));
  state.SetLabel(std::to_string(width) + "x" + std::to_string(width * 3 / 4));
}
BENCHMARK(BM_FrameResolutionSweep)->Arg(240)->Arg(320)->Arg(480)->Arg(640)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== T-LAT: recognition latency (paper: 38 ms / 27 ms in Python; "
               "targets 30/60 fps) ===\n\n";
  print_stage_breakdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
