// paced_fleet_30fps — the paper's operating point, open loop.
//
// 16 drones play the contention-pair dialogue scripts
// (coordination::make_contention_fleet, cycled for the run) at 30 fps each,
// 480 frames/s offered. Each drone keeps one phase inside the 33.3 ms frame
// period, drawn from the seed. One generator thread issues every frame at
// its due time into PerceptionService (2 shards) -> InteractionService ->
// CoordinationService. Latency runs from each frame's due time, so a stall
// that delays later sends is charged to them; the first second is warm-up
// and is discarded.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>

#include "coordination/coordination_service.hpp"
#include "coordination/fleet_scenario.hpp"
#include "interaction/interaction_service.hpp"
#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hdc;

constexpr std::size_t kDrones = 16;
constexpr std::size_t kShards = 2;
constexpr double kFps = 30.0;
constexpr double kWarmupSeconds = 1.0;
constexpr std::uint64_t kPeriodNs = 33'333'333;  // 30 fps
constexpr std::size_t kMinAcks = 100;

/// Everything set-up builds: the database, the scripts rendered into a
/// pool of distinct frames, and the seeded drone phases.
struct Inputs {
  std::unique_ptr<recognition::SaxSignRecognizer> reference;
  interaction::CommandGrammar grammar{interaction::CommandGrammar::standard()};
  coordination::ContentionFleet fleet;
  std::vector<imaging::GrayImage> pool;
  std::vector<std::vector<std::uint32_t>> script;  ///< [drone][tick % period] -> pool
  std::vector<std::uint64_t> phase_ns;
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  in.reference = std::make_unique<recognition::SaxSignRecognizer>(
      recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  in.fleet = coordination::make_contention_fleet(kDrones, in.grammar);
  const signs::MultiDroneFeed feed(coordination::make_fleet_feed_config(in.fleet));
  // Equal plans render equal frames, so each distinct (sign, view) is
  // rendered once and the scripts index into the pool.
  std::map<std::tuple<signs::HumanSign, double, double>, std::uint32_t> rendered;
  in.script.resize(kDrones);
  for (std::size_t d = 0; d < kDrones; ++d) {
    const std::uint64_t period = feed.script_period(d);
    in.script[d].resize(period);
    for (std::uint64_t tick = 0; tick < period; ++tick) {
      const signs::FramePlan plan = feed.plan(d, tick);
      const auto key = std::make_tuple(plan.sign, plan.view.altitude_m,
                                       plan.view.relative_azimuth_deg);
      auto it = rendered.find(key);
      if (it == rendered.end()) {
        it = rendered.emplace(key, static_cast<std::uint32_t>(in.pool.size())).first;
        in.pool.push_back(feed.render_frame(d, tick));
      }
      in.script[d][tick] = it->second;
    }
  }
  util::Rng rng(seed);
  for (std::size_t d = 0; d < kDrones; ++d) {
    in.phase_ns.push_back(static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kPeriodNs) - 1)));
  }
  return in;
}

/// The three services of the stack, wired as a deployment wires them.
struct Stack {
  Stack(const Inputs& in, recognition::PerceptionService::ResultCallback callback,
        telemetry::MetricsRegistry* metrics, telemetry::FlightRecorder* recorder)
      : coordinator(coordination_config(metrics, recorder)),
        dialogue(interaction_config(*in.reference, metrics, recorder),
                 interaction::CommandGrammar(in.grammar.rules())) {
    coordinator.bind(dialogue);
    for (const auto& drone : in.fleet.drones) coordinator.register_drone(drone);
    recognition::PerceptionServiceConfig config;
    config.shards = kShards;
    config.metrics = metrics;
    config.recorder = recorder;
    perception = std::make_unique<recognition::PerceptionService>(
        in.reference->config(), in.reference->database_ptr(), std::move(callback), config);
    dialogue.watch(perception.get());
  }
  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Settles the abort round trip coordination -> interaction -> coordination.
  void drain() {
    for (int round = 0; round < 3; ++round) {
      perception->drain();
      dialogue.drain();
      coordinator.drain();
    }
  }
  void stop() {
    if (perception) perception->stop();
    dialogue.watch(nullptr);
    dialogue.stop();
    coordinator.stop();
  }

  static coordination::CoordinationConfig coordination_config(
      telemetry::MetricsRegistry* metrics, telemetry::FlightRecorder* recorder) {
    coordination::CoordinationConfig config;
    config.cells = kDrones / 2;
    config.metrics = metrics;
    config.recorder = recorder;
    return config;
  }
  static interaction::InteractionServiceConfig interaction_config(
      const recognition::SaxSignRecognizer& reference, telemetry::MetricsRegistry* metrics,
      telemetry::FlightRecorder* recorder) {
    interaction::InteractionServiceConfig config;
    config.fusion = interaction::FusionPolicy::matching(reference.config());
    config.metrics = metrics;
    config.recorder = recorder;
    return config;
  }

  coordination::CoordinationService coordinator;
  interaction::InteractionService dialogue;
  std::unique_ptr<recognition::PerceptionService> perception;
};

/// Per-drone record of one measured pass, indexed by frame sequence.
struct Track {
  std::vector<std::uint64_t> due;
  std::vector<std::uint64_t> done;  ///< result callback time; 0 = never delivered
  std::vector<Payload> payload;
  std::vector<std::uint64_t> on_result_ns;  ///< traced passes only
  std::uint64_t next{0};                    ///< shard thread only
  std::uint64_t out_of_order{0};            ///< shard thread only
};

struct AckSample {
  std::uint32_t stream{0};
  std::uint64_t tick{0};
  std::uint64_t at{0};
  bool execute_done{false};
};

struct GrantSample {
  coordination::GrantUpdate update;
  std::uint64_t at{0};
};

/// What one measured pass over the schedule produced.
struct Pass {
  std::vector<double> frame_ms, ack_ms, result_to_ack_ms, on_result_us, submit_us,
      lateness_ms, outcome_to_grant_us;
  double cpu_ms_per_frame{0.0};        ///< median over 1 s sub-windows
  double cpu_ms_per_frame_whole{0.0};  ///< over the whole window
  std::size_t sub_windows{0};
  double frames_per_s{0.0};
  double steal_pct{0.0};
  std::uint64_t window_frames{0};
  std::uint64_t delivered{0};  ///< whole pass, warm-up included
  std::uint64_t accepted{0};
  std::uint64_t acks{0};
  std::uint64_t events{0};
  std::uint64_t arbitrations{0};
  std::uint64_t aborts_deferred{0};
  std::uint64_t conflicts{0};
  std::vector<std::uint64_t> shard_popped;
  double latency_thirds[3]{};
  double depth_thirds[3]{};
};

/// One pass over the schedule: `seconds` measured after the warm-up. Every
/// pass checks payloads, order and grants; a `full` pass is long enough to
/// also owe the scripted first-cycle arbitration and kMinAcks acks.
Pass run_pass(const Inputs& in, const std::vector<Payload>& oracle, double seconds, bool full,
              telemetry::MetricsRegistry* metrics, telemetry::FlightRecorder* recorder,
              WorkloadResult& result) {
  const bool traced = metrics != nullptr;
  const auto warm = static_cast<std::uint64_t>(std::llround(kWarmupSeconds * kFps));
  const std::uint64_t frames = warm + static_cast<std::uint64_t>(std::llround(seconds * kFps));

  std::vector<Track> track(kDrones);
  for (Track& t : track) {
    t.due.assign(frames, 0);
    t.done.assign(frames, 0);
    t.payload.resize(frames);
    if (traced) t.on_result_ns.assign(frames, 0);
  }
  std::vector<AckSample> acks;         // dialogue worker
  std::vector<GrantSample> grants;     // coordination worker
  acks.reserve(4096);
  std::atomic<std::int64_t> in_flight{0};
  std::atomic<std::uint64_t> stray{0};  // callbacks for unknown streams/sequences

  interaction::InteractionService* dialogue_ptr = nullptr;
  Stack stack(
      in,
      [&](const recognition::StreamResult& r) {
        const std::uint64_t at = now_ns();
        if (r.stream_id >= kDrones || r.sequence >= frames) {
          stray.fetch_add(1, std::memory_order_relaxed);
        } else {
          Track& t = track[r.stream_id];
          if (r.sequence != t.next) ++t.out_of_order;
          t.next = r.sequence + 1;
          t.done[r.sequence] = at;
          t.payload[r.sequence] = Payload::of(r.result);
          if (traced) {
            const std::uint64_t start = now_ns();
            dialogue_ptr->on_result(r);
            t.on_result_ns[r.sequence] = now_ns() - start;
            in_flight.fetch_sub(1, std::memory_order_relaxed);
            return;
          }
        }
        dialogue_ptr->on_result(r);
        in_flight.fetch_sub(1, std::memory_order_relaxed);
      },
      metrics, recorder);
  dialogue_ptr = &stack.dialogue;
  stack.dialogue.set_ack_observer([&](const interaction::AckAction& ack) {
    acks.push_back({ack.stream_id, ack.tick, now_ns(),
                    std::strcmp(ack.event, "execute:done") == 0});
  });
  stack.coordinator.set_registry_observer(
      [&](const coordination::GrantUpdate& update) { grants.push_back({update, now_ns()}); });

  Pass pass;
  std::vector<std::pair<std::uint64_t, std::int64_t>> depth;  // (frame index, in flight)
  depth.reserve(static_cast<std::size_t>(frames) * kDrones);
  std::uint64_t refused = 0;
  double cpu_start = 0.0;
  double generator_cpu_start = 0.0;
  HostTicks ticks_start;
  SubWindows windows;
  std::uint64_t sent = 0;
  // The generator polls near due times; its CPU is the benchmark's, not the
  // program's, so it is left out of CPU per frame.
  const auto program_cpu = [] { return process_cpu_seconds() - thread_cpu_seconds(); };
  OpenLoopGenerator generator(in.phase_ns, kPeriodNs, frames);
  generator.run(now_ns() + 20'000'000, [&](std::size_t s, std::uint64_t k, std::uint64_t due) {
    track[s].due[k] = due;
    if (k >= warm) {
      const std::uint64_t delivered = sent - in_flight.load(std::memory_order_relaxed);
      if (k == warm && depth.empty()) {
        cpu_start = process_cpu_seconds();
        generator_cpu_start = thread_cpu_seconds();
        ticks_start = host_ticks();
        windows.start(now_ns(), delivered, program_cpu());
      } else if (const std::uint64_t now = now_ns(); windows.due(now)) {
        windows.close(now, delivered, program_cpu());
      }
      depth.emplace_back(k, in_flight.load(std::memory_order_relaxed));
    }
    ++sent;
    in_flight.fetch_add(1, std::memory_order_relaxed);
    const imaging::GrayImage& frame = in.pool[in.script[s][k % in.script[s].size()]];
    recognition::SubmitReceipt receipt;
    if (traced) {
      const std::uint64_t start = now_ns();
      receipt = stack.perception->submit(static_cast<std::uint32_t>(s), frame);
      pass.submit_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    } else {
      receipt = stack.perception->submit(static_cast<std::uint32_t>(s), frame);
    }
    if (receipt.status != recognition::SubmitStatus::kEnqueued || receipt.sequence != k) {
      ++refused;
      in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
  });
  const double generator_cpu = thread_cpu_seconds() - generator_cpu_start;
  stack.drain();
  const double cpu_seconds = process_cpu_seconds() - cpu_start - generator_cpu;
  pass.steal_pct = steal_pct(ticks_start, host_ticks());

  // --- correctness ---------------------------------------------------------
  result.attempted += frames * kDrones;
  result.fail(refused, "paced: frames refused at submit or given an unexpected sequence");
  result.fail(stray.load(), "paced: results for streams or sequences never submitted");
  for (std::size_t d = 0; d < kDrones; ++d) {
    const Track& t = track[d];
    result.fail(t.out_of_order, "paced: drone " + std::to_string(d) +
                                    " results out of sequence order");
    std::uint64_t missing = 0, wrong = 0;
    for (std::uint64_t k = 0; k < frames; ++k) {
      if (t.done[k] == 0) {
        ++missing;
        continue;
      }
      ++pass.delivered;
      if (!t.payload[k].same_as(oracle[in.script[d][k % in.script[d].size()]])) {
        ++wrong;
      }
    }
    result.fail(missing, "paced: drone " + std::to_string(d) + " frames never delivered");
    result.fail(wrong, "paced: drone " + std::to_string(d) +
                           " payloads differ from SaxSignRecognizer::recognize");
  }
  const coordination::RegistryStats registry = stack.coordinator.registry_stats();
  std::uint64_t conflicting_updates = 0;
  for (const GrantSample& g : grants) conflicting_updates += g.update.conflict ? 1 : 0;
  pass.conflicts = std::max<std::uint64_t>(registry.conflicts, conflicting_updates);
  result.attempted += grants.size();
  result.fail(pass.conflicts, "paced: conflicting grants");

  // Each contention pair resolves as scripted in its first cycle: the first
  // arbitration over its human picks the scripted winner, and the first
  // grant of its cell goes to that winner.
  if (full) {
    const std::vector<coordination::ArbitrationDecision> decisions =
        stack.coordinator.arbitration_log();
    for (const coordination::PairExpectation& pair : in.fleet.pairs) {
      ++result.attempted;
      const auto decision = std::find_if(decisions.begin(), decisions.end(), [&](const auto& a) {
        return a.human_id == pair.human_id;
      });
      const auto grant = std::find_if(grants.begin(), grants.end(), [&](const GrantSample& g) {
        return g.update.cell == pair.cell && !g.update.conflict &&
               g.update.record.state == coordination::GrantState::kGranted;
      });
      if (decision == decisions.end() || decision->winner != pair.winner ||
          decision->loser != pair.loser || grant == grants.end() ||
          grant->update.record.holder != pair.winner) {
        result.fail(1, "paced: contention pair " + std::to_string(pair.human_id) +
                           " did not resolve as scripted in its first cycle");
      }
    }
  }

  // --- measurements over the window ---------------------------------------
  pass.window_frames = (frames - warm) * kDrones;
  pass.cpu_ms_per_frame_whole = cpu_seconds * 1e3 / static_cast<double>(pass.window_frames);
  pass.cpu_ms_per_frame = windows.cpu_ms_per_item().empty() ? pass.cpu_ms_per_frame_whole
                                                            : median(windows.cpu_ms_per_item());
  pass.sub_windows = windows.cpu_ms_per_item().size();
  std::vector<double> thirds[3];
  std::uint64_t first_due = UINT64_MAX, last_done = 0;
  for (std::size_t d = 0; d < kDrones; ++d) {
    const Track& t = track[d];
    first_due = std::min(first_due, t.due[warm]);
    for (std::uint64_t k = warm; k < frames; ++k) {
      if (t.done[k] == 0) continue;
      last_done = std::max(last_done, t.done[k]);
      const double ms = ns_to_ms(static_cast<std::int64_t>(t.done[k] - t.due[k]));
      pass.frame_ms.push_back(ms);
      thirds[(k - warm) * 3 / (frames - warm)].push_back(ms);
      if (traced) pass.on_result_us.push_back(static_cast<double>(t.on_result_ns[k]) / 1e3);
      pass.accepted += t.payload[k].accepted ? 1 : 0;
    }
  }
  // Delivered rate from the first due send to the last result: it falls
  // below the offered 480/s only when the stack cannot keep up.
  pass.frames_per_s = static_cast<double>(pass.frame_ms.size()) * 1e9 /
                      static_cast<double>(std::max(last_done, first_due + 1) - first_due);
  std::vector<double> depth_thirds[3];
  for (const auto& [k, level] : depth) {
    depth_thirds[(k - warm) * 3 / (frames - warm)].push_back(static_cast<double>(level));
  }
  for (int i = 0; i < 3; ++i) {
    pass.latency_thirds[i] = median(thirds[i]);
    double sum = 0.0;
    for (const double v : depth_thirds[i]) sum += v;
    pass.depth_thirds[i] = depth_thirds[i].empty() ? 0.0 : sum / depth_thirds[i].size();
  }

  // Acks of frames due inside the window; outcome -> grant for every grant.
  std::vector<std::vector<std::uint64_t>> done_acks(kDrones);
  for (const AckSample& a : acks) {
    if (a.stream >= kDrones || a.tick >= frames) continue;
    if (a.execute_done) done_acks[a.stream].push_back(a.at);
    if (a.tick < warm) continue;
    const Track& t = track[a.stream];
    pass.ack_ms.push_back(ns_to_ms(static_cast<std::int64_t>(a.at - t.due[a.tick])));
    if (t.done[a.tick] != 0) {
      pass.result_to_ack_ms.push_back(
          ns_to_ms(static_cast<std::int64_t>(a.at - t.done[a.tick])));
    }
  }
  for (const GrantSample& g : grants) {
    // A fresh grant follows its holder's execute:done; renewals follow a
    // later Yes and are not outcome -> grant.
    if (g.update.conflict || g.update.record.state != coordination::GrantState::kGranted ||
        g.update.record.renewals != 0 || g.update.record.holder >= kDrones) {
      continue;
    }
    const auto& times = done_acks[g.update.record.holder];
    const auto it = std::upper_bound(times.begin(), times.end(), g.at);
    if (it != times.begin()) {
      pass.outcome_to_grant_us.push_back(static_cast<double>(g.at - *(it - 1)) / 1e3);
    }
  }
  pass.acks = acks.size();
  if (full) {
    ++result.attempted;
    if (pass.ack_ms.size() < kMinAcks) {
      result.fail(1, "paced: only " + std::to_string(pass.ack_ms.size()) +
                         " acks in the window (need >= " + std::to_string(kMinAcks) + ")");
    }
  }
  for (std::size_t d = 0; d < kDrones; ++d) {
    pass.events += stack.dialogue.stream_stats(static_cast<std::uint32_t>(d)).events_begun;
  }
  const coordination::CoordinationStats coordination = stack.coordinator.stats();
  pass.arbitrations = coordination.arbitrations;
  pass.aborts_deferred = coordination.aborts_deferred;
  for (const recognition::ShardGauge& gauge : stack.perception->shard_gauges()) {
    pass.shard_popped.push_back(gauge.popped);
  }
  for (const std::uint64_t late : generator.lateness_ns()) {
    pass.lateness_ms.push_back(ns_to_ms(static_cast<std::int64_t>(late)));
  }

  // Steady-state guard: above the sustainable rate the backlog grows for as
  // long as the run lasts and p99 only measures the run length.
  // The slack is wide because host noise moves both levels by a few
  // milliseconds and frames; overload moves them by the run length.
  if (keeps_rising(pass.latency_thirds[0], pass.latency_thirds[1], pass.latency_thirds[2],
                   1.0, 20.0) ||
      keeps_rising(pass.depth_thirds[0], pass.depth_thirds[1], pass.depth_thirds[2], 1.0,
                   32.0)) {
    result.fail(1, "paced: INVALID run, latency or queue depth keeps rising across the "
                   "window (not a steady state)");
  }
  return pass;
}

/// The wall-clock figures of a pass: what a user of the fleet sees, and what
/// hypervisor steal on a shared host moves most (host_steal_pct says how
/// much there was).
std::vector<Metric> wall_clock(const Pass& pass, const std::string& prefix) {
  std::vector<Metric> out;
  out.push_back(sample_metric(prefix + "latency_p50_ms", pass.frame_ms, 50.0, "ms"));
  out.back().note = "frame_p50: due time -> result";
  out.push_back(sample_metric(prefix + "latency_tail_ms", pass.frame_ms, 99.0, "ms"));
  out.back().note += out.back().note.empty() ? "frame_p99" : "; frame_p99";
  out.push_back({prefix + "throughput_per_s", pass.frames_per_s, "1/s", pass.frame_ms.size(),
                 "frames delivered per second (offered 480)"});
  out.push_back({prefix + "host_steal_pct", pass.steal_pct, "%", 0, "over the window"});
  if (prefix.empty()) {  // acks are interaction.ack_* in the per-layer table
    out.push_back(sample_metric("ack_p50_ms", pass.ack_ms, 50.0, "ms"));
    out.push_back(sample_metric("ack_p90_ms", pass.ack_ms, 90.0, "ms"));
  }
  return out;
}

}  // namespace

WorkloadResult run_paced_fleet(const RunOptions& options) {
  WorkloadResult result;
  std::vector<double> setup_s;
  Inputs in;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    in = Inputs{};
    const double start = process_cpu_seconds();
    in = generate(options.seed);
    { Stack stack(in, [](const recognition::StreamResult&) {}, nullptr, nullptr); }
    setup_s.push_back(process_cpu_seconds() - start);
  }
  std::vector<Payload> oracle;
  oracle.reserve(in.pool.size());
  for (const imaging::GrayImage& frame : in.pool) {
    oracle.push_back(Payload::of(in.reference->recognize(frame)));
  }

  // A traced run keeps a quarter-length untraced pass as its overhead baseline.
  const bool full = !options.trace;
  const Pass plain = run_pass(in, oracle, full ? options.seconds : options.seconds / 4, full,
                              nullptr, nullptr, result);
  const double rss = peak_rss_mb();
  std::printf("paced_fleet_30fps: %zu drones x %.0f fps, %zu shards, %zu distinct frames, "
              "%llu window frames, %zu acks in window, latency thirds %.3f/%.3f/%.3f ms, "
              "mean in-flight thirds %.2f/%.2f/%.2f\n",
              kDrones, kFps, kShards, in.pool.size(),
              static_cast<unsigned long long>(plain.window_frames), plain.ack_ms.size(),
              plain.latency_thirds[0], plain.latency_thirds[1], plain.latency_thirds[2],
              plain.depth_thirds[0], plain.depth_thirds[1], plain.depth_thirds[2]);

  auto& e2e = result.end_to_end;
  e2e.push_back({"cpu_ms_per_item", plain.cpu_ms_per_frame, "ms", plain.sub_windows,
                 "process CPU per frame without the generator, median of 1 s sub-windows"});
  e2e.push_back({"cpu_ms_per_item_whole", plain.cpu_ms_per_frame_whole, "ms",
                 plain.window_frames, "over the whole window"});
  e2e.push_back(setup_metric(setup_s));
  e2e.push_back({"peak_rss_mb", rss, "MB", 0, ""});
  for (Metric& m : wall_clock(plain, "")) e2e.push_back(std::move(m));
  if (!options.trace) return result;

  // --- traced pass: registry + flight recorder wired, calls timed ----------
  telemetry::MetricsRegistry registry;
  telemetry::FlightRecorder recorder(1u << 16);
  const Pass traced =
      run_pass(in, oracle, options.seconds, true, &registry, &recorder, result);
  const telemetry::MetricsSnapshot snap = registry.snapshot();
  auto& layers = result.per_layer;
  for (Metric& m : wall_clock(traced, "wall.")) layers.push_back(std::move(m));
  layers.push_back(sample_metric("loadgen.send_lateness_p99_ms", traced.lateness_ms, 99.0, "ms"));
  absent(layers, "loadgen.submit_blocked_frac", "ratio", "open loop: the generator never "
                                                         "waits on a full ring by design");
  layers.push_back(sample_metric("perception.submit_us_p50", traced.submit_us, 50.0, "us"));
  layers.push_back(sample_metric("perception.submit_us_p99", traced.submit_us, 99.0, "us"));
  histogram_metric(layers, snap, "perception_ring_wait_ns", "perception.queue_wait_us_p50", 0.5);
  histogram_metric(layers, snap, "perception_ring_wait_ns", "perception.queue_wait_us_p99", 0.99);
  histogram_metric(layers, snap, "perception_recognize_ns", "perception.recognize_us_p50", 0.5);
  add_perception_shape(layers, snap, traced.delivered, traced.shard_popped);

  std::vector<const imaging::GrayImage*> sample;  // every 8th scripted frame per drone
  for (const auto& script : in.script) {
    for (std::size_t tick = 0; tick < script.size(); tick += 8) {
      sample.push_back(&in.pool[script[tick]]);
    }
  }
  result.attempted += sample.size();
  result.fail(run_imaging_pass(*in.reference, sample, layers),
              "paced: offline imaging signature differs from extract_signature");
  layers.push_back({"recognition.accept_frac",
                    static_cast<double>(traced.accepted) /
                        static_cast<double>(std::max<std::size_t>(traced.frame_ms.size(), 1)),
                    "ratio", traced.frame_ms.size(), ""});

  layers.push_back(sample_metric("interaction.on_result_us_p50", traced.on_result_us, 50.0, "us"));
  layers.push_back(sample_metric("interaction.on_result_us_p99", traced.on_result_us, 99.0, "us"));
  layers.push_back(
      sample_metric("interaction.result_to_ack_ms_p50", traced.result_to_ack_ms, 50.0, "ms"));
  layers.push_back(
      sample_metric("interaction.result_to_ack_ms_p90", traced.result_to_ack_ms, 90.0, "ms"));
  layers.push_back(sample_metric("interaction.ack_p50_ms", traced.ack_ms, 50.0, "ms"));
  layers.push_back(sample_metric("interaction.ack_p90_ms", traced.ack_ms, 90.0, "ms"));
  histogram_metric(layers, snap, "interaction_fuse_ns", "interaction.fuse_us_p50", 0.5);
  histogram_metric(layers, snap, "interaction_transition_ns", "interaction.transition_us_p50",
                   0.5);
  layers.push_back({"interaction.events", static_cast<double>(traced.events), "count", 0, ""});
  layers.push_back({"interaction.acks", static_cast<double>(traced.acks), "count", 0, ""});

  layers.push_back(sample_metric("coordination.outcome_to_grant_us_p50",
                                 traced.outcome_to_grant_us, 50.0, "us"));
  layers.push_back(
      {"coordination.arbitrations", static_cast<double>(traced.arbitrations), "count", 0, ""});
  layers.push_back({"coordination.aborts_deferred", static_cast<double>(traced.aborts_deferred),
                    "count", 0, ""});
  layers.push_back(
      {"coordination.conflicts", static_cast<double>(traced.conflicts), "count", 0, ""});

  add_trace_overhead(layers, plain.cpu_ms_per_frame, traced.cpu_ms_per_frame,
                     median(plain.frame_ms), median(traced.frame_ms));
  result.chrome_trace =
      telemetry::export_chrome_trace(last_window(recorder.collect(), 1'000'000'000));
  return result;
}

}  // namespace perfbench
