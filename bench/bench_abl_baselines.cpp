// ABL-2 — SAX vs classical baselines. The paper's introduction argues the
// field's techniques are either expensive (neural networks, Kinect-class
// sensors) or not obviously certifiable; its contribution is a cheap,
// robust pipeline. This bench compares the SAX recogniser against three
// classical same-cost-class baselines on identical silhouette inputs:
// accuracy head-on, accuracy across the working envelope, robustness to
// azimuth, and per-frame latency.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <memory>

#include "baselines/chain_code.hpp"
#include "baselines/hu_moments.hpp"
#include "baselines/template_match.hpp"
#include "recognition/recognizer.hpp"
#include "signs/scene.hpp"
#include "signs/sign_poses.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hdc;
using signs::HumanSign;

/// Uniform evaluation interface over SAX + the three baselines.
struct Method {
  std::string name;
  std::function<std::optional<HumanSign>(const imaging::GrayImage&)> classify;
};

std::vector<Method> make_methods() {
  std::vector<Method> methods;

  auto sax = std::make_shared<recognition::SaxSignRecognizer>(
      recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  methods.push_back({"sax (paper)", [sax](const imaging::GrayImage& frame) {
                       const auto r = sax->recognize(frame);
                       // Pure classification comparison: take the nearest class.
                       return std::optional<HumanSign>(r.sign);
                     }});

  const signs::ViewGeometry canonical{3.5, 3.0, 0.0};
  auto hu = std::make_shared<baselines::HuMomentsRecognizer>();
  hu->train(canonical, signs::RenderOptions{});
  methods.push_back({"hu-moments", [hu](const imaging::GrayImage& frame) {
                       const auto r = hu->classify(frame);
                       return r.valid ? std::optional<HumanSign>(r.sign) : std::nullopt;
                     }});

  auto chain = std::make_shared<baselines::ChainCodeRecognizer>();
  chain->train(canonical, signs::RenderOptions{});
  methods.push_back({"chain-code", [chain](const imaging::GrayImage& frame) {
                       const auto r = chain->classify(frame);
                       return r.valid ? std::optional<HumanSign>(r.sign) : std::nullopt;
                     }});

  auto tmpl = std::make_shared<baselines::TemplateMatchRecognizer>();
  tmpl->train(canonical, signs::RenderOptions{});
  methods.push_back({"template-ncc", [tmpl](const imaging::GrayImage& frame) {
                       const auto r = tmpl->classify(frame);
                       return r.valid ? std::optional<HumanSign>(r.sign) : std::nullopt;
                     }});
  return methods;
}

/// Timed classify calls per frame; the frame's cost is their median.
constexpr int kTimedCalls = 5;

void compare_envelope(const std::vector<Method>& methods) {
  std::cout << "--- 4-class accuracy + latency across the working envelope "
               "(az +/-35, alt 2-5, worker jitter, 15 frames/sign) ---\n";
  // Cost is the mean over frames of each frame's median of kTimedCalls
  // warm calls: a single cold call per frame swings too much run to run
  // to resolve a change of a few microseconds.
  util::TextTable table({"method", "accuracy %", "median us/frame"});
  for (const Method& method : methods) {
    util::Rng rng(99);  // same conditions per method
    int correct = 0, total = 0;
    double us = 0.0;
    for (const HumanSign sign : signs::kAllSigns) {
      for (int i = 0; i < 15; ++i) {
        signs::ViewGeometry view;
        view.altitude_m = rng.uniform(2.0, 5.0);
        view.distance_m = rng.uniform(2.5, 3.5);
        view.relative_azimuth_deg = rng.uniform(-35.0, 35.0);
        const auto pose = signs::sample_pose(sign, signs::worker_jitter(), rng);
        const auto frame = signs::render_scene(pose, signs::BodyDimensions{}, view,
                                               signs::RenderOptions{}, &rng);
        const auto got = method.classify(frame);  // scored; warms the frame
        std::array<double, kTimedCalls> calls_us{};
        for (double& call_us : calls_us) {
          util::Stopwatch watch;
          benchmark::DoNotOptimize(method.classify(frame));
          call_us = watch.elapsed_us();
        }
        std::nth_element(calls_us.begin(), calls_us.begin() + kTimedCalls / 2,
                         calls_us.end());
        us += calls_us[kTimedCalls / 2];
        ++total;
        if (got.has_value() && *got == sign) ++correct;
      }
    }
    table.add_row({method.name, util::fmt(100.0 * correct / total, 1),
                   util::fmt(us / total, 1)});
  }
  table.print(std::cout);
  std::cout << "\n";
}

void compare_azimuth_robustness(const std::vector<Method>& methods) {
  std::cout << "--- accuracy vs relative azimuth (3 communicative signs, alt 2-5) ---\n";
  std::vector<std::string> header = {"method"};
  for (const int az : {0, 15, 30, 45, 60}) header.push_back("az " + std::to_string(az));
  util::TextTable table(header);
  for (const Method& method : methods) {
    std::vector<std::string> row = {method.name};
    for (const int az : {0, 15, 30, 45, 60}) {
      int correct = 0, total = 0;
      for (const HumanSign sign : signs::kCommunicativeSigns) {
        for (const double alt : {2.0, 3.5, 5.0}) {
          const auto frame = signs::render_sign(
              sign, {alt, 3.0, static_cast<double>(az)}, signs::RenderOptions{});
          const auto got = method.classify(frame);
          ++total;
          if (got.has_value() && *got == sign) ++correct;
        }
      }
      row.push_back(std::to_string(correct) + "/" + std::to_string(total));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "(expected shape: SAX holds its accuracy deeper into the azimuth\n"
               " sweep than the global-statistic baselines, at comparable cost --\n"
               " the paper's design argument)\n\n";
}

void BM_Sax(benchmark::State& state) {
  static const recognition::SaxSignRecognizer recognizer{
      recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{}};
  const auto frame = signs::render_sign(HumanSign::kNo, {3.5, 3.0, 10.0}, {});
  for (auto _ : state) benchmark::DoNotOptimize(recognizer.recognize(frame));
}
BENCHMARK(BM_Sax)->Unit(benchmark::kMillisecond);

void BM_HuMoments(benchmark::State& state) {
  static baselines::HuMomentsRecognizer recognizer = [] {
    baselines::HuMomentsRecognizer r;
    r.train({3.5, 3.0, 0.0}, signs::RenderOptions{});
    return r;
  }();
  const auto frame = signs::render_sign(HumanSign::kNo, {3.5, 3.0, 10.0}, {});
  for (auto _ : state) benchmark::DoNotOptimize(recognizer.classify(frame));
}
BENCHMARK(BM_HuMoments)->Unit(benchmark::kMillisecond);

void BM_TemplateNcc(benchmark::State& state) {
  static baselines::TemplateMatchRecognizer recognizer = [] {
    baselines::TemplateMatchRecognizer r;
    r.train({3.5, 3.0, 0.0}, signs::RenderOptions{});
    return r;
  }();
  const auto frame = signs::render_sign(HumanSign::kNo, {3.5, 3.0, 10.0}, {});
  for (auto _ : state) benchmark::DoNotOptimize(recognizer.classify(frame));
}
BENCHMARK(BM_TemplateNcc)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== ABL-2: SAX vs classical baselines ===\n\n";
  const std::vector<Method> methods = make_methods();
  compare_envelope(methods);
  compare_azimuth_robustness(methods);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
