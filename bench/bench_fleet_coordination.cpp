// Fleet coordination bench: outcome -> grant-visible latency and
// arbitration throughput through the full stack, with a zero-conflicting-
// grants gate.
//
// For each fleet size in {2, 4, 8, 16} drones, the fleet is split into
// contention pairs (coordination::make_contention_fleet): both drones of a
// pair negotiate with the SAME human for the SAME orchard cell, the second
// staggered so the first is mid-dialogue when it shows up. Every stream
// submits its scripted frames from its own producer thread into
// PerceptionService; InteractionService runs the dialogues; the
// CoordinationService arbitrates the pairs and registers the grants.
// Reported per cell:
//
//   - aggregate frames/sec through the whole four-layer stack,
//   - p50/p99 outcome -> grant-visible latency (the execute:done ack of
//     the winning dialogue -> the grant published in the registry, i.e.
//     when mission planners can see it),
//   - arbitrations/sec,
//   - the gate: every pair resolved exactly as scripted (winner holds the
//     cell, loser aborted), and ZERO conflicting grants — the registry
//     never saw a second drone claim a held cell, and every published
//     grant names the pair's winner.
//
// Flags: --smoke (2 and 4 drones only, for CI), --json PATH.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "coordination/coordination_service.hpp"
#include "coordination/fleet_scenario.hpp"
#include "interaction/interaction_service.hpp"
#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "util/statistics.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hdc;
using Clock = std::chrono::steady_clock;

struct CellResult {
  std::size_t drones{0};
  std::size_t shards{0};
  std::size_t frames_total{0};
  double aggregate_fps{0.0};
  double grant_p50_ms{0.0};
  double grant_p99_ms{0.0};
  std::uint64_t arbitrations{0};
  double arbitrations_per_sec{0.0};
  std::uint64_t conflicts{0};
  bool fleet_ok{false};
};

CellResult run_cell(const recognition::SaxSignRecognizer& reference,
                    const interaction::CommandGrammar& grammar,
                    const coordination::ContentionFleet& fleet,
                    const std::vector<std::vector<imaging::GrayImage>>& scripts,
                    std::size_t drones, std::size_t shards) {
  CellResult cell;
  cell.drones = drones;
  cell.shards = shards;
  for (std::size_t s = 0; s < drones; ++s) cell.frames_total += scripts[s].size();

  std::vector<Clock::time_point> outcome_at(drones);  // ack observer writes
  std::vector<double> grant_latencies_ms;             // registry observer writes
  std::vector<coordination::GrantUpdate> grant_log;   // registry observer writes
  double seconds = 0.0;
  std::string failure;

  coordination::CoordinationConfig coordination_config;
  coordination_config.cells = std::max<std::size_t>(1, drones / 2);
  coordination_config.grant_ttl = 1'000'000;  // leases must outlive the run
  coordination::CoordinationService coordinator(coordination_config);

  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion = interaction::FusionPolicy::matching(reference.config());
  interaction::InteractionService dialogue(
      dialogue_config, interaction::CommandGrammar(grammar.rules()));

  coordinator.bind(dialogue);
  for (std::size_t s = 0; s < drones; ++s) {
    coordinator.register_drone(fleet.drones[s]);
  }
  dialogue.set_ack_observer([&](const interaction::AckAction& ack) {
    if (std::string_view(ack.event) == "execute:done") {
      outcome_at[ack.stream_id] = Clock::now();
    }
  });
  coordinator.set_registry_observer([&](const coordination::GrantUpdate& update) {
    grant_log.push_back(update);
    if (!update.conflict &&
        update.record.state == coordination::GrantState::kGranted &&
        update.record.renewals == 0) {
      grant_latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                                       Clock::now() -
                                       outcome_at[update.record.holder])
                                       .count());
    }
  });

  recognition::PerceptionServiceConfig perception_config;
  perception_config.shards = shards;
  perception_config.queue_capacity = 64;
  recognition::PerceptionService perception(
      reference.config(), reference.database_ptr(), dialogue.callback(),
      perception_config);
  dialogue.watch(&perception);

  util::Stopwatch wall;
  std::vector<std::thread> producers;
  producers.reserve(drones);
  for (std::size_t s = 0; s < drones; ++s) {
    producers.emplace_back([&, s] {
      for (const imaging::GrayImage& frame : scripts[s]) {
        perception.submit(static_cast<std::uint32_t>(s), frame);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  // Settle the abort round trip: coordination -> interaction -> coordination.
  for (int round = 0; round < 3; ++round) {
    perception.drain();
    dialogue.drain();
  }
  seconds = wall.elapsed_seconds();

  // --- the gate ---------------------------------------------------------
  cell.conflicts = coordinator.registry_stats().conflicts;
  cell.arbitrations = coordinator.stats().arbitrations;
  cell.fleet_ok = cell.conflicts == 0;
  for (const coordination::PairExpectation& pair : fleet.pairs) {
    if (static_cast<std::size_t>(2 * pair.human_id + 1) >= drones) break;
    const coordination::GrantRecord record = coordinator.grant(pair.cell);
    if (record.state != coordination::GrantState::kGranted ||
        record.holder != pair.winner) {
      failure = "cell " + std::to_string(pair.cell) + ": " +
                coordination::to_string(record.state) + " holder " +
                std::to_string(record.holder) + " (want winner " +
                std::to_string(pair.winner) + ")";
      cell.fleet_ok = false;
    }
    if (dialogue.outcome(pair.winner) != protocol::Outcome::kGranted ||
        dialogue.outcome(pair.loser) != protocol::Outcome::kAborted) {
      failure = "pair " + std::to_string(pair.human_id) +
                ": winner/loser outcomes " +
                protocol::to_string(dialogue.outcome(pair.winner)) + "/" +
                protocol::to_string(dialogue.outcome(pair.loser));
      cell.fleet_ok = false;
    }
  }
  // Single-holder invariant over the WHOLE run: every grant the registry
  // ever published for a cell names that pair's scripted winner.
  for (const coordination::GrantUpdate& update : grant_log) {
    if (update.record.state != coordination::GrantState::kGranted) continue;
    if (update.record.holder !=
        fleet.pairs[static_cast<std::size_t>(update.cell)].winner) {
      failure = "cell " + std::to_string(update.cell) +
                " was granted to non-winner " +
                std::to_string(update.record.holder);
      cell.fleet_ok = false;
    }
  }
  if (!cell.fleet_ok) std::cerr << "gate: " << failure << "\n";

  perception.stop();
  dialogue.stop();
  coordinator.stop();

  cell.aggregate_fps = static_cast<double>(cell.frames_total) / seconds;
  cell.arbitrations_per_sec = static_cast<double>(cell.arbitrations) / seconds;
  cell.grant_p50_ms = util::percentile(grant_latencies_ms, 50.0);
  cell.grant_p99_ms = util::percentile(grant_latencies_ms, 99.0);
  return cell;
}

void write_json(const std::string& path, const std::vector<CellResult>& cells,
                std::size_t hardware_threads) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for JSON output\n";
    return;
  }
  out << "{\n  \"bench\": \"fleet_coordination\",\n"
      << "  \"hardware_threads\": " << hardware_threads << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    {\"drones\": " << c.drones << ", \"shards\": " << c.shards
        << ", \"frames_total\": " << c.frames_total
        << ", \"aggregate_fps\": " << c.aggregate_fps
        << ", \"grant_p50_ms\": " << c.grant_p50_ms
        << ", \"grant_p99_ms\": " << c.grant_p99_ms
        << ", \"arbitrations\": " << c.arbitrations
        << ", \"arbitrations_per_sec\": " << c.arbitrations_per_sec
        << ", \"conflicts\": " << c.conflicts
        << ", \"fleet_ok\": " << (c.fleet_ok ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--json PATH]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> drone_counts =
      smoke ? std::vector<std::size_t>{2, 4}
            : std::vector<std::size_t>{2, 4, 8, 16};
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::cout << "building canonical database + rendering contention scripts...\n";
  const recognition::SaxSignRecognizer reference(
      recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();

  const std::size_t max_drones = drone_counts.back();
  const coordination::ContentionFleet fleet =
      coordination::make_contention_fleet(max_drones, grammar);
  const signs::MultiDroneFeed feed(coordination::make_fleet_feed_config(fleet));
  std::vector<std::vector<imaging::GrayImage>> scripts(max_drones);
  for (std::size_t s = 0; s < max_drones; ++s) {
    scripts[s] =
        feed.prerender(s, static_cast<std::size_t>(feed.script_period(s)));
  }

  util::TextTable table({"drones", "shards", "frames", "aggregate fps",
                         "grant p50 ms", "grant p99 ms", "arb", "arb/s",
                         "conflicts", "fleet"});
  std::vector<CellResult> cells;
  bool all_ok = true;
  for (const std::size_t drones : drone_counts) {
    const std::size_t shards = std::min<std::size_t>(drones, 4);
    const CellResult cell =
        run_cell(reference, grammar, fleet, scripts, drones, shards);
    all_ok = all_ok && cell.fleet_ok;
    table.add_row({std::to_string(cell.drones), std::to_string(cell.shards),
                   std::to_string(cell.frames_total),
                   util::fmt(cell.aggregate_fps, 1),
                   util::fmt(cell.grant_p50_ms, 2),
                   util::fmt(cell.grant_p99_ms, 2),
                   std::to_string(cell.arbitrations),
                   util::fmt(cell.arbitrations_per_sec, 2),
                   std::to_string(cell.conflicts),
                   cell.fleet_ok ? "ok" : "FAIL"});
    cells.push_back(cell);
  }

  std::cout << "\n--- fleet coordination (contention pairs, "
            << (smoke ? "smoke" : "full") << ") ---\n";
  table.print(std::cout);
  std::cout << "hardware threads: " << hw
            << "; grant latency = execute:done ack -> grant visible in the "
               "registry\n";

  if (!json_path.empty()) {
    write_json(json_path, cells, hw);
    std::cout << "wrote " << json_path << "\n";
  }

  if (!all_ok) {
    std::cout << "FAIL: a contention pair missed its scripted arbitration "
                 "outcome or a conflicting grant slipped through\n";
    return 1;
  }
  std::cout << "all contention pairs resolved as scripted; zero conflicting "
               "grants\n";
  return 0;
}
