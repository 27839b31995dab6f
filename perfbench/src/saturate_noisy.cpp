// saturate_noisy — capacity of one companion computer, closed loop.
//
// One generator thread round-robins 12 camera streams into 3 kBlock shards
// as fast as the rings admit (4 streams per shard; generator + shards =
// 4 threads). Frames carry sensor noise (sigma = 25 grey levels) and 8
// clutter blobs drawn from the seed, which makes connected components far
// dearer than on clean silhouettes. Perception only.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hdc;

constexpr std::size_t kStreams = 12;
constexpr std::size_t kShards = 3;
constexpr std::size_t kFramesPerStream = 8;   ///< distinct noisy frames, cycled
constexpr double kNoiseStddev = 25.0;
constexpr int kClutterBlobs = 8;
constexpr double kWarmupSeconds = 1.0;
constexpr double kMaxFps = 8000.0;  ///< bound for preallocating per-frame records

struct Inputs {
  std::unique_ptr<recognition::SaxSignRecognizer> reference;
  std::vector<imaging::GrayImage> pool;  ///< stream s, frame i at s * kFramesPerStream + i
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.reference = std::make_unique<recognition::SaxSignRecognizer>(
      recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  signs::MultiDroneFeedConfig config;
  config.streams = kStreams;
  config.render.noise_stddev = kNoiseStddev;
  config.render.clutter_count = kClutterBlobs;
  const signs::MultiDroneFeed feed(config);
  util::Rng rng(seed);
  in.pool.reserve(kStreams * kFramesPerStream);
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (std::size_t i = 0; i < kFramesPerStream; ++i) {
      const signs::FramePlan plan = feed.plan(s, i);
      in.pool.push_back(signs::render_sign(plan.sign, plan.view, config.render, &rng));
    }
  }
  return in;
}

std::unique_ptr<recognition::PerceptionService> make_service(
    const Inputs& in, recognition::PerceptionService::ResultCallback callback,
    telemetry::MetricsRegistry* metrics, telemetry::FlightRecorder* recorder) {
  recognition::PerceptionServiceConfig config;
  config.shards = kShards;
  config.overflow = util::OverflowPolicy::kBlock;
  config.metrics = metrics;
  config.recorder = recorder;
  return std::make_unique<recognition::PerceptionService>(
      in.reference->config(), in.reference->database_ptr(), std::move(callback), config);
}

struct Track {
  std::vector<std::uint64_t> submitted;  ///< submit() entry time
  std::vector<std::uint64_t> done;       ///< result callback time; 0 = never
  std::vector<Payload> payload;
  std::uint64_t count{0};           ///< generator thread only
  std::uint64_t window_first{0};    ///< first sequence submitted in the window
  std::uint64_t next{0};            ///< shard thread only
  std::uint64_t out_of_order{0};    ///< shard thread only
};

struct Pass {
  std::vector<double> latency_ms, submit_us;
  double frames_per_s{0.0};
  double cpu_ms_per_frame{0.0};        ///< median over 1 s sub-windows
  double cpu_ms_per_frame_whole{0.0};  ///< over the whole window
  double blocked_frac{0.0};
  double steal_pct{0.0};
  std::size_t sub_windows{0};
  std::uint64_t window_frames{0};
  std::uint64_t delivered{0};
  std::uint64_t accepted{0};
  std::vector<std::uint64_t> shard_popped;
};

Pass run_pass(const Inputs& in, const std::vector<Payload>& oracle, double seconds,
              telemetry::MetricsRegistry* metrics, telemetry::FlightRecorder* recorder,
              WorkloadResult& result) {
  const auto capacity = static_cast<std::uint64_t>((seconds + kWarmupSeconds) * kMaxFps /
                                                   static_cast<double>(kStreams)) + 64;
  std::vector<Track> track(kStreams);
  for (Track& t : track) {
    t.submitted.assign(capacity, 0);
    t.done.assign(capacity, 0);
    t.payload.resize(capacity);
  }
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> stray{0};
  auto service = make_service(
      in,
      [&](const recognition::StreamResult& r) {
        const std::uint64_t at = now_ns();
        if (r.stream_id >= kStreams || r.sequence >= capacity) {
          stray.fetch_add(1, std::memory_order_relaxed);
        } else {
          Track& t = track[r.stream_id];
          if (r.sequence != t.next) ++t.out_of_order;
          t.next = r.sequence + 1;
          t.done[r.sequence] = at;
          t.payload[r.sequence] = Payload::of(r.result);
        }
        delivered.fetch_add(1, std::memory_order_relaxed);
      },
      metrics, recorder);

  Pass pass;
  std::uint64_t refused = 0;
  std::uint64_t blocked_ns = 0;
  bool in_window = false;
  double cpu_start = 0.0;
  std::uint64_t delivered_start = 0;
  std::uint64_t window_start = 0;
  SubWindows windows;
  HostTicks ticks_start;
  const std::uint64_t start = now_ns();
  const auto warm_end = start + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  const auto end = warm_end + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const std::size_t s = i % kStreams;
    Track& t = track[s];
    const std::uint64_t now = now_ns();
    if (now >= end || t.count >= capacity) break;
    if (!in_window && now >= warm_end) {
      in_window = true;
      cpu_start = process_cpu_seconds();
      ticks_start = host_ticks();
      delivered_start = delivered.load(std::memory_order_relaxed);
      window_start = now_ns();
      windows.start(window_start, delivered_start, cpu_start);
      for (Track& w : track) w.window_first = w.count;
    } else if (in_window && windows.due(now)) {
      windows.close(now, delivered.load(std::memory_order_relaxed), process_cpu_seconds());
    }
    const std::uint64_t k = t.count++;
    t.submitted[k] = now;
    const recognition::SubmitReceipt receipt = service->submit(
        static_cast<std::uint32_t>(s), in.pool[s * kFramesPerStream + k % kFramesPerStream]);
    const std::uint64_t after = now_ns();
    if (in_window) {
      blocked_ns += after - now;
      if (metrics != nullptr) pass.submit_us.push_back(static_cast<double>(after - now) / 1e3);
    }
    if (receipt.status != recognition::SubmitStatus::kEnqueued || receipt.sequence != k) {
      ++refused;
    }
  }
  const std::uint64_t window_end = now_ns();
  const std::uint64_t delivered_end = delivered.load(std::memory_order_relaxed);
  const double cpu_seconds = process_cpu_seconds() - cpu_start;
  pass.steal_pct = steal_pct(ticks_start, host_ticks());
  service->drain();
  for (const recognition::ShardGauge& gauge : service->shard_gauges()) {
    pass.shard_popped.push_back(gauge.popped);
  }
  service->stop();

  // --- correctness ---------------------------------------------------------
  result.fail(refused, "saturate: frames refused at submit or given an unexpected sequence");
  result.fail(stray.load(), "saturate: results for streams or sequences never submitted");
  for (std::size_t s = 0; s < kStreams; ++s) {
    const Track& t = track[s];
    result.attempted += t.count;
    result.fail(t.out_of_order, "saturate: stream " + std::to_string(s) +
                                    " results out of sequence order");
    std::uint64_t missing = 0, wrong = 0;
    for (std::uint64_t k = 0; k < t.count; ++k) {
      if (t.done[k] == 0) {
        ++missing;
        continue;
      }
      ++pass.delivered;
      if (!t.payload[k].same_as(oracle[s * kFramesPerStream + k % kFramesPerStream])) ++wrong;
    }
    result.fail(missing, "saturate: stream " + std::to_string(s) + " frames never delivered");
    result.fail(wrong, "saturate: stream " + std::to_string(s) +
                           " payloads differ from SaxSignRecognizer::recognize");
  }

  // --- measurements over the window ---------------------------------------
  pass.window_frames = delivered_end - delivered_start;
  const double window_s = static_cast<double>(window_end - window_start) / 1e9;
  pass.frames_per_s = windows.rates().empty()
                          ? static_cast<double>(pass.window_frames) / window_s
                          : median(windows.rates());
  pass.sub_windows = windows.rates().size();
  pass.cpu_ms_per_frame_whole =
      cpu_seconds * 1e3 / static_cast<double>(std::max<std::uint64_t>(pass.window_frames, 1));
  pass.cpu_ms_per_frame = windows.cpu_ms_per_item().empty() ? pass.cpu_ms_per_frame_whole
                                                            : median(windows.cpu_ms_per_item());
  pass.blocked_frac = static_cast<double>(blocked_ns) / static_cast<double>(window_end -
                                                                             window_start);
  for (const Track& t : track) {
    for (std::uint64_t k = t.window_first; k < t.count; ++k) {
      if (t.done[k] == 0) continue;
      pass.latency_ms.push_back(ns_to_ms(static_cast<std::int64_t>(t.done[k] - t.submitted[k])));
      pass.accepted += t.payload[k].accepted ? 1 : 0;
    }
  }
  return pass;
}

/// Wall-clock figures of a pass; hypervisor steal on a shared host moves
/// them most (host_steal_pct says how much there was).
std::vector<Metric> wall_clock(const Pass& pass, const std::string& prefix) {
  std::vector<Metric> out;
  out.push_back(sample_metric(prefix + "latency_p50_ms", pass.latency_ms, 50.0, "ms"));
  out.back().note = "submit -> result under full rings";
  out.push_back(sample_metric(prefix + "latency_tail_ms", pass.latency_ms, 99.0, "ms"));
  out.back().note += out.back().note.empty() ? "p99" : "; p99";
  out.push_back({prefix + "throughput_per_s", pass.frames_per_s, "1/s", pass.sub_windows,
                 "saturation_fps, median of 1 s sub-windows"});
  out.push_back({prefix + "host_steal_pct", pass.steal_pct, "%", 0, "over the window"});
  return out;
}

}  // namespace

WorkloadResult run_saturate_noisy(const RunOptions& options) {
  WorkloadResult result;
  std::vector<double> setup_s;
  Inputs in;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    in = Inputs{};
    const double start = process_cpu_seconds();
    in = generate(options.seed);
    make_service(in, [](const recognition::StreamResult&) {}, nullptr, nullptr)->stop();
    setup_s.push_back(process_cpu_seconds() - start);
  }
  std::vector<Payload> oracle;
  oracle.reserve(in.pool.size());
  for (const imaging::GrayImage& frame : in.pool) {
    oracle.push_back(Payload::of(in.reference->recognize(frame)));
  }

  // A traced run keeps a quarter-length untraced pass as its overhead baseline.
  const Pass plain = run_pass(in, oracle, options.trace ? options.seconds / 4 : options.seconds,
                              nullptr, nullptr, result);
  const double rss = peak_rss_mb();
  std::printf("saturate_noisy: %zu streams on %zu kBlock shards, %zu distinct noisy frames, "
              "%llu window frames, generator blocked in submit %.1f%% of the window\n",
              kStreams, kShards, in.pool.size(),
              static_cast<unsigned long long>(plain.window_frames), plain.blocked_frac * 100.0);

  auto& e2e = result.end_to_end;
  e2e.push_back({"cpu_ms_per_item", plain.cpu_ms_per_frame, "ms", plain.sub_windows,
                 "process CPU per frame, median of 1 s sub-windows"});
  e2e.push_back({"cpu_ms_per_item_whole", plain.cpu_ms_per_frame_whole, "ms",
                 plain.window_frames, "over the whole window"});
  e2e.push_back(setup_metric(setup_s));
  e2e.push_back({"peak_rss_mb", rss, "MB", 0, ""});
  for (Metric& m : wall_clock(plain, "")) e2e.push_back(std::move(m));
  if (!options.trace) return result;

  telemetry::MetricsRegistry registry;
  telemetry::FlightRecorder recorder(1u << 16);
  const Pass traced = run_pass(in, oracle, options.seconds, &registry, &recorder, result);
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  auto& layers = result.per_layer;
  for (Metric& m : wall_clock(traced, "wall.")) layers.push_back(std::move(m));
  absent(layers, "loadgen.send_lateness_p99_ms", "ms", "closed loop: frames have no due time");
  layers.push_back({"loadgen.submit_blocked_frac", traced.blocked_frac, "ratio",
                    traced.submit_us.size(), ""});
  layers.push_back(sample_metric("perception.submit_us_p50", traced.submit_us, 50.0, "us"));
  layers.push_back(sample_metric("perception.submit_us_p99", traced.submit_us, 99.0, "us"));
  histogram_metric(layers, snap, "perception_ring_wait_ns", "perception.queue_wait_us_p50", 0.5);
  histogram_metric(layers, snap, "perception_ring_wait_ns", "perception.queue_wait_us_p99", 0.99);
  histogram_metric(layers, snap, "perception_recognize_ns", "perception.recognize_us_p50", 0.5);
  add_perception_shape(layers, snap, traced.delivered, traced.shard_popped);

  std::vector<const imaging::GrayImage*> frames;
  for (const imaging::GrayImage& frame : in.pool) frames.push_back(&frame);
  result.attempted += frames.size();
  result.fail(run_imaging_pass(*in.reference, frames, layers),
              "saturate: offline imaging signature differs from extract_signature");
  layers.push_back({"recognition.accept_frac",
                    static_cast<double>(traced.accepted) /
                        static_cast<double>(std::max<std::size_t>(traced.latency_ms.size(), 1)),
                    "ratio", traced.latency_ms.size(), ""});
  // Closed-loop latency is queue residence, set by ring capacity over
  // throughput, so only CPU is compared.
  add_trace_overhead(layers, plain.cpu_ms_per_frame, traced.cpu_ms_per_frame, 0.0, 0.0);
  result.chrome_trace =
      telemetry::export_chrome_trace(last_window(recorder.collect(), 1'000'000'000));
  return result;
}

}  // namespace perfbench
