// replay_fixture — journal replay speed, no imaging.
//
// The committed 8-drone contention journal (tests/data/
// fleet_contention_8.journal, read from the working directory) is replayed
// back to back through protocol::ReplayDriver on one thread. The fuser,
// dialogue FSM, arbiter, grant registry and wire parser do all the work.
// Every replay must verify (ReplayReport::ok) and produce the same bytes as
// the first one.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <variant>

#include "protocol/journal.hpp"
#include "protocol/replay_driver.hpp"
#include "protocol/wire.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hdc;

constexpr const char* kFixture = "tests/data/fleet_contention_8.journal";
constexpr double kWarmupSeconds = 0.5;

struct Pass {
  std::vector<double> replay_ms;
  std::vector<telemetry::TraceEvent> last_events;  ///< traced: the last replay's spans
  double inputs_per_s{0.0};
  double cpu_ms_per_input{0.0};        ///< median over 1 s sub-windows
  double cpu_ms_per_input_whole{0.0};  ///< over the whole window
  std::uint64_t replays{0};
  std::size_t sub_windows{0};
  double steal_pct{0.0};
};

/// Replays `journal` for `seconds` after a warm-up; every replay must be ok
/// and byte-identical to `reference`. A traced pass gives every replay a
/// flight recorder of its own: each replay runs on fresh service threads,
/// and one shared recorder would keep a lane for every thread ever seen.
Pass run_pass(const std::vector<std::uint8_t>& journal, double seconds, bool traced,
              const std::vector<std::uint8_t>& reference, WorkloadResult& result) {
  const protocol::ReplayDriver untraced_driver;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  Pass pass;
  std::uint64_t inputs = 0;
  double cpu_start = 0.0;
  std::uint64_t window_start = 0;
  SubWindows windows;
  HostTicks ticks_start;
  const std::uint64_t start = now_ns();
  const auto warm_end = start + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  const auto end = warm_end + static_cast<std::uint64_t>(seconds * 1e9);
  for (;;) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= end) break;
    const bool in_window = t0 >= warm_end;
    if (in_window && window_start == 0) {
      cpu_start = process_cpu_seconds();
      ticks_start = host_ticks();
      window_start = now_ns();
      windows.start(window_start, 0, cpu_start);
    }
    protocol::ReplayReport report;
    if (traced) {
      recorder = std::make_unique<telemetry::FlightRecorder>(1u << 13);
      protocol::ReplayOptions replay_options;
      replay_options.recorder = recorder.get();
      report = protocol::ReplayDriver(replay_options).replay(journal);
    } else {
      report = untraced_driver.replay(journal);
    }
    const std::uint64_t t1 = now_ns();
    ++result.attempted;
    if (!report.ok) {
      result.fail(1, "replay: report not ok: " +
                         (report.parsed ? report.mismatch : report.error.message));
    } else if (report.journal_bytes != reference) {
      result.fail(1, "replay: replay journal differs from the first replay's bytes");
    }
    if (in_window) {
      pass.replay_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      inputs += report.observations_fed + report.fleet_events_fed;
      ++pass.replays;
      if (windows.due(t1)) windows.close(t1, inputs, process_cpu_seconds());
    }
  }
  if (recorder) pass.last_events = recorder->collect();
  const double wall_s = static_cast<double>(now_ns() - window_start) / 1e9;
  const double cpu_s = process_cpu_seconds() - cpu_start;
  pass.steal_pct = steal_pct(ticks_start, host_ticks());
  pass.inputs_per_s = windows.rates().empty() ? static_cast<double>(inputs) / wall_s
                                              : median(windows.rates());
  pass.sub_windows = windows.rates().size();
  pass.cpu_ms_per_input_whole =
      cpu_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(inputs, 1));
  pass.cpu_ms_per_input = windows.cpu_ms_per_item().empty() ? pass.cpu_ms_per_input_whole
                                                            : median(windows.cpu_ms_per_item());
  return pass;
}

/// Wall-clock figures of a pass; hypervisor steal on a shared host moves
/// them most (host_steal_pct says how much there was).
std::vector<Metric> wall_clock(const Pass& pass, const std::string& prefix) {
  std::vector<Metric> out;
  out.push_back(sample_metric(prefix + "latency_p50_ms", pass.replay_ms, 50.0, "ms"));
  out.back().note = "one replay() of the fixture";
  out.push_back(sample_metric(prefix + "latency_tail_ms", pass.replay_ms, 90.0, "ms"));
  out.back().note += out.back().note.empty() ? "p90 of replay()" : "; p90";
  out.push_back({prefix + "throughput_per_s", pass.inputs_per_s, "1/s", pass.sub_windows,
                 "replay_inputs_per_s, median of 1 s sub-windows"});
  out.push_back({prefix + "host_steal_pct", pass.steal_pct, "%", 0, "over the window"});
  return out;
}

}  // namespace

WorkloadResult run_replay_fixture(const RunOptions& options) {
  WorkloadResult result;
  // Set-up loads the fixture and makes the reference replay every measured
  // replay is compared against.
  std::vector<double> setup_s;
  std::vector<std::uint8_t> journal;
  std::vector<std::uint8_t> reference;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    journal = {};
    reference = {};
    const double start = process_cpu_seconds();
    if (!protocol::EventJournal::load(kFixture, journal)) {
      throw std::runtime_error(std::string("cannot read ") + kFixture +
                               " (run from the repository root)");
    }
    const protocol::ReplayReport first = protocol::ReplayDriver().replay(journal);
    setup_s.push_back(process_cpu_seconds() - start);
    ++result.attempted;
    if (!first.ok) {
      result.fail(1, "replay: reference replay not ok: " +
                         (first.parsed ? first.mismatch : first.error.message));
    }
    reference = first.journal_bytes;
  }

  // A traced run keeps a quarter-length untraced pass as its overhead baseline.
  const Pass plain = run_pass(journal, options.trace ? options.seconds / 4 : options.seconds,
                              false, reference, result);
  const double rss = peak_rss_mb();
  std::printf("replay_fixture: %zu-byte journal, %llu replays in the window\n", journal.size(),
              static_cast<unsigned long long>(plain.replays));

  auto& e2e = result.end_to_end;
  e2e.push_back({"cpu_ms_per_item", plain.cpu_ms_per_input, "ms", plain.sub_windows,
                 "process CPU per replay input (observation or fleet event), median of 1 s "
                 "sub-windows"});
  e2e.push_back({"cpu_ms_per_item_whole", plain.cpu_ms_per_input_whole, "ms", plain.replays,
                 "over the whole window"});
  e2e.push_back(setup_metric(setup_s));
  e2e.push_back({"peak_rss_mb", rss, "MB", 0, ""});
  for (Metric& m : wall_clock(plain, "")) e2e.push_back(std::move(m));
  if (!options.trace) return result;

  // --- traced pass: the driver's services emit into a flight recorder ------
  const Pass traced = run_pass(journal, options.seconds, true, reference, result);
  auto& layers = result.per_layer;
  for (Metric& m : wall_clock(traced, "wall.")) layers.push_back(std::move(m));

  // Parse cost of the fixture on its own.
  std::vector<double> parse_us;
  std::vector<protocol::wire::AnyRecord> records;
  for (int i = 0; i < 200; ++i) {
    records.clear();
    protocol::wire::WireError error;
    const std::uint64_t t0 = now_ns();
    const bool parsed = protocol::wire::parse_all(journal, records, error);
    parse_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    ++result.attempted;
    if (!parsed) result.fail(1, "replay: fixture does not parse: " + error.message);
  }
  layers.push_back(sample_metric("protocol.parse_us", parse_us, 50.0, "us"));
  layers.push_back(sample_metric("protocol.replay_ms_p50", traced.replay_ms, 50.0, "ms"));
  layers.push_back({"protocol.records", static_cast<double>(records.size()), "count", 0, ""});

  // Work counts of one replay, read back from the replay's own journal.
  std::vector<protocol::wire::AnyRecord> replayed;
  protocol::wire::WireError error;
  if (!protocol::wire::parse_all(reference, replayed, error)) {
    result.fail(1, "replay: replay journal does not parse: " + error.message);
  }
  std::uint64_t begins = 0, transitions = 0, arbitrations = 0, conflicts = 0;
  for (const auto& record : replayed) {
    if (const auto* e = std::get_if<protocol::wire::SignEventRecord>(&record)) {
      begins += e->kind == 0 ? 1 : 0;  // interaction::SignEventKind::kBegin
    } else if (std::holds_alternative<protocol::wire::TransitionRecord>(record)) {
      ++transitions;
    } else if (std::holds_alternative<protocol::wire::ArbitrationRecord>(record)) {
      ++arbitrations;
    } else if (const auto* g = std::get_if<protocol::wire::GrantUpdateRecord>(&record)) {
      conflicts += g->conflict != 0 ? 1 : 0;
    }
  }
  result.fail(conflicts, "replay: conflicting grants in the replayed run");

  layers.push_back(sample_metric(
      "interaction.fuse_us_p50",
      stage_durations_us(traced.last_events, telemetry::TraceStage::kFuse), 50.0, "us"));
  layers.push_back(sample_metric(
      "interaction.transition_us_p50",
      stage_durations_us(traced.last_events, telemetry::TraceStage::kTransition), 50.0, "us"));
  layers.push_back({"interaction.events", static_cast<double>(begins), "count", 0,
                    "sign onsets per replay"});
  layers.push_back({"interaction.acks", static_cast<double>(transitions), "count", 0,
                    "transitions per replay"});
  layers.push_back({"coordination.arbitrations", static_cast<double>(arbitrations), "count", 0,
                    "per replay"});
  absent(layers, "coordination.aborts_deferred", "count",
         "replay re-issues recorded aborts instead of delivering new ones");
  layers.push_back({"coordination.conflicts", static_cast<double>(conflicts), "count", 0,
                    "per replay"});
  add_trace_overhead(layers, plain.cpu_ms_per_input, traced.cpu_ms_per_input,
                     median(plain.replay_ms), median(traced.replay_ms));
  result.chrome_trace = telemetry::export_chrome_trace(traced.last_events);
  return result;
}

}  // namespace perfbench
