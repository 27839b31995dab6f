// Coordination layer tests: SessionArbiter priority/backoff determinism,
// GrantRegistry lifecycle, CoordinationService event handling (direct
// admission — deterministic, no rendering) and whole-event reads while
// another thread admits, and the scripted contention scenarios end to
// end through perception -> interaction -> coordination.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "coordination/coordination_service.hpp"
#include "coordination/fleet_scenario.hpp"
#include "coordination/grant_registry.hpp"
#include "coordination/session_arbiter.hpp"
#include "interaction/interaction_service.hpp"
#include "protocol/journal.hpp"
#include "protocol/replay_driver.hpp"
#include "protocol/wire.hpp"
#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/trace.hpp"

namespace hdc::coordination {
namespace {

using interaction::DialogueState;

DroneDescriptor drone(std::uint32_t id, int cell, int human,
                      double battery = 1.0) {
  return {id, cell, human, battery};
}

// ---------------------------------------------------------------- arbiter --

TEST(Arbiter, PhaseRankOutranksBatteryAndId) {
  SessionArbiter arbiter;
  // Drone 5 is further along but has the worse battery and the higher id.
  arbiter.add_drone(drone(5, 0, 0, 0.2));
  arbiter.add_drone(drone(1, 0, 0, 0.9));
  SessionArbiter::Decisions out;
  arbiter.on_phase(5, DialogueState::kConfirming, 100, out);
  ASSERT_TRUE(out.empty());
  arbiter.on_phase(1, DialogueState::kAttending, 110, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].loser, 1u);
  EXPECT_EQ(out[0].winner, 5u);
  EXPECT_EQ(out[0].reason, AbortReason::kLostArbitration);
}

TEST(Arbiter, BatteryBreaksPhaseTie) {
  SessionArbiter arbiter;
  arbiter.add_drone(drone(0, 0, 0, 0.4));
  arbiter.add_drone(drone(1, 0, 0, 0.8));
  SessionArbiter::Decisions out;
  arbiter.on_phase(0, DialogueState::kAttending, 10, out);
  arbiter.on_phase(1, DialogueState::kAttending, 12, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].loser, 0u);  // same phase; drone 1 has more energy left
  EXPECT_EQ(out[0].winner, 1u);
}

TEST(Arbiter, IdenticalPriorityResolvesDeterministicallyByLowerId) {
  // Same phase, same battery: the total order falls through to stream id.
  // Run the identical script twice — the outcome must be identical.
  for (int run = 0; run < 2; ++run) {
    SessionArbiter arbiter;
    arbiter.add_drone(drone(7, 0, 0, 0.5));
    arbiter.add_drone(drone(3, 0, 0, 0.5));
    SessionArbiter::Decisions out;
    arbiter.on_phase(7, DialogueState::kAttending, 10, out);
    arbiter.on_phase(3, DialogueState::kAttending, 12, out);
    ASSERT_EQ(out.size(), 1u) << "run " << run;
    EXPECT_EQ(out[0].loser, 7u) << "run " << run;
    EXPECT_EQ(out[0].winner, 3u) << "run " << run;
  }
}

TEST(Arbiter, LoserBackoffDoublesUpToCapAndWinClearsIt) {
  ArbitrationPolicy policy;
  policy.retry_backoff = 10;
  policy.retry_backoff_max = 25;
  // Aging off: this test pins the backoff-doubling mechanics in isolation,
  // so drone 1 must keep losing (fairness would flip round two — that
  // behaviour is pinned by the Fairness* tests instead).
  policy.fairness_boost_per_loss = 0;
  SessionArbiter arbiter(policy);
  arbiter.add_drone(drone(0, 0, 0, 0.9));
  arbiter.add_drone(drone(1, 0, 0, 0.1));

  SessionArbiter::Decisions out;
  arbiter.on_phase(0, DialogueState::kAttending, 100, out);
  arbiter.on_phase(1, DialogueState::kAttending, 100, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].loser, 1u);
  EXPECT_EQ(out[0].retry_at, 110u);  // base backoff

  // The loser's dialogue aborts; it retries after the window, loses again:
  // backoff doubles (20), then caps (25).
  arbiter.on_phase(1, DialogueState::kIdle, 112, out);
  out.clear();
  arbiter.on_phase(1, DialogueState::kAttending, 120, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, AbortReason::kLostArbitration);
  EXPECT_EQ(out[0].retry_at, 140u);  // 120 + 20

  arbiter.on_phase(1, DialogueState::kIdle, 142, out);
  out.clear();
  arbiter.on_phase(1, DialogueState::kAttending, 150, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].retry_at, 175u);  // 150 + min(40, cap 25)

  // Winner completes; drone 1 finally wins one: backoff resets.
  arbiter.on_dialogue_end(0, /*won=*/true, 200);
  arbiter.on_phase(1, DialogueState::kIdle, 200, out);
  arbiter.on_dialogue_end(1, /*won=*/true, 260);
  EXPECT_EQ(arbiter.retry_at(1), 0u);
}

TEST(Arbiter, DeferredRetryAbortedInsideBackoffWindow) {
  ArbitrationPolicy policy;
  policy.retry_backoff = 50;
  SessionArbiter arbiter(policy);
  arbiter.add_drone(drone(0, 0, 0, 0.9));
  arbiter.add_drone(drone(1, 0, 0, 0.1));
  SessionArbiter::Decisions out;
  arbiter.on_phase(0, DialogueState::kAttending, 100, out);
  arbiter.on_phase(1, DialogueState::kAttending, 100, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].retry_at, 150u);

  // Winner finishes early — but the loser's window still stands: a retry
  // at 120 is refused even with nobody contending.
  arbiter.on_dialogue_end(0, true, 110);
  arbiter.on_phase(1, DialogueState::kIdle, 112, out);
  out.clear();
  arbiter.on_phase(1, DialogueState::kAttending, 120, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, AbortReason::kDeferredRetry);
  EXPECT_EQ(out[0].loser, 1u);
  EXPECT_EQ(out[0].retry_at, 150u);  // unchanged — deferral does not double

  // Past the window the retry goes through uncontested.
  arbiter.on_phase(1, DialogueState::kIdle, 140, out);
  out.clear();
  arbiter.on_phase(1, DialogueState::kAttending, 151, out);
  EXPECT_TRUE(out.empty());
}

TEST(Arbiter, AbortPendingLoserDoesNotReArbitrate) {
  SessionArbiter arbiter;
  arbiter.add_drone(drone(0, 0, 0, 0.9));
  arbiter.add_drone(drone(1, 0, 0, 0.1));
  SessionArbiter::Decisions out;
  arbiter.on_phase(0, DialogueState::kAttending, 10, out);
  arbiter.on_phase(1, DialogueState::kAttending, 12, out);
  // One contention: one lost-arbitration decision, for the loser.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reason, AbortReason::kLostArbitration);
  EXPECT_EQ(out[0].loser, 1u);
  out.clear();
  // The abort is in flight but the loser's dialogue keeps advancing for a
  // few frames — those transitions must not trigger fresh arbitrations,
  // and the winner advancing must not re-abort the already-doomed loser.
  arbiter.on_phase(1, DialogueState::kCommandPending, 14, out);
  arbiter.on_phase(0, DialogueState::kCommandPending, 15, out);
  EXPECT_TRUE(out.empty());
}

TEST(Arbiter, AbortArrivingAfterDialogueCompletedIsHarmless) {
  // The losing stream's dialogue completes (its abort was too late). The
  // arbiter must take the outcome in stride: standing cleared, and the
  // next attention is judged fresh.
  SessionArbiter arbiter;
  arbiter.add_drone(drone(0, 0, 0, 0.9));
  arbiter.add_drone(drone(1, 0, 0, 0.1));
  SessionArbiter::Decisions out;
  arbiter.on_phase(0, DialogueState::kAttending, 10, out);
  arbiter.on_phase(1, DialogueState::kAttending, 12, out);
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  // Loser "completes" (granted!) before the abort could land — the
  // registry-side conflict refusal is tested separately; here the arbiter
  // just closes the session.
  arbiter.on_dialogue_end(1, /*won=*/true, 50);
  EXPECT_EQ(arbiter.phase_of(1), DialogueState::kIdle);
  EXPECT_EQ(arbiter.retry_at(1), 0u);  // a win clears the backoff
  // The late abort manifests as Aborting -> Idle transitions; harmless.
  arbiter.on_phase(1, DialogueState::kAborting, 52, out);
  arbiter.on_phase(1, DialogueState::kIdle, 60, out);
  EXPECT_TRUE(out.empty());
}

TEST(Arbiter, ThreeWayContentionLeavesOneStanding) {
  SessionArbiter arbiter;
  arbiter.add_drone(drone(0, 0, 0, 0.9));
  arbiter.add_drone(drone(1, 0, 0, 0.5));
  arbiter.add_drone(drone(2, 0, 0, 0.7));
  SessionArbiter::Decisions out;
  arbiter.on_phase(1, DialogueState::kAttending, 10, out);
  arbiter.on_phase(2, DialogueState::kAttending, 11, out);
  ASSERT_EQ(out.size(), 1u);  // 2 beats 1 on battery
  EXPECT_EQ(out[0].loser, 1u);
  out.clear();
  arbiter.on_phase(0, DialogueState::kAttending, 12, out);
  ASSERT_EQ(out.size(), 1u);  // 0 beats 2 on battery; 1 already doomed
  EXPECT_EQ(out[0].loser, 2u);
  EXPECT_EQ(out[0].winner, 0u);
}

// --------------------------------------------------------------- registry --

/// True when `holder` holds a grant on `cell` that is still live at `now`.
bool held_by(const GrantRegistry& registry, int cell, std::uint32_t holder,
             std::uint64_t now) {
  const GrantRecord record = registry.read(cell);
  return record.state == GrantState::kGranted && record.holder == holder &&
         now < record.expires_seq;
}

TEST(Registry, GrantLifecycleWithTtl) {
  GrantRegistry registry(4, 100);
  EXPECT_TRUE(registry.grant(2, 7, 1000));
  GrantRecord record = registry.read(2);
  EXPECT_EQ(record.state, GrantState::kGranted);
  EXPECT_EQ(record.holder, 7u);
  EXPECT_EQ(record.granted_seq, 1000u);
  EXPECT_EQ(record.expires_seq, 1100u);
  EXPECT_TRUE(held_by(registry, 2, 7, 1050));
  EXPECT_FALSE(held_by(registry, 2, 7, 1100));  // lease end is exclusive

  EXPECT_EQ(registry.expire(1099), 0u);
  EXPECT_EQ(registry.expire(1100), 1u);
  EXPECT_EQ(registry.read(2).state, GrantState::kExpired);
  EXPECT_EQ(registry.stats().grants, 1u);
  EXPECT_EQ(registry.stats().expiries, 1u);
}

TEST(Registry, ConflictingGrantRefusedAndCounted) {
  GrantRegistry registry(2, 100);
  EXPECT_TRUE(registry.grant(0, 1, 10));
  // The late-abort race: another drone's dialogue completed anyway. The
  // single-holder invariant wins.
  EXPECT_FALSE(registry.grant(0, 2, 20));
  EXPECT_EQ(registry.read(0).holder, 1u);
  EXPECT_EQ(registry.stats().conflicts, 1u);
  // After the lease lapses the other drone may claim the cell.
  EXPECT_TRUE(registry.grant(0, 2, 115));
  EXPECT_EQ(registry.read(0).holder, 2u);
}

TEST(Registry, RegrantBySameHolderRenewsLease) {
  GrantRegistry registry(1, 100);
  EXPECT_TRUE(registry.grant(0, 3, 10));
  EXPECT_TRUE(registry.grant(0, 3, 60));
  const GrantRecord record = registry.read(0);
  EXPECT_EQ(record.expires_seq, 160u);
  EXPECT_EQ(record.renewals, 1u);
  EXPECT_EQ(registry.stats().grants, 1u);
  EXPECT_EQ(registry.stats().renewals, 1u);
}

TEST(Registry, RevocationBeatsRenewalInEitherOrder) {
  // Order A: revoke, then the racing renewal arrives — refused.
  {
    GrantRegistry registry(1, 100);
    registry.grant(0, 3, 10);
    EXPECT_TRUE(registry.revoke(0, 50));
    EXPECT_FALSE(registry.renew(0, 3, 50));
    EXPECT_EQ(registry.read(0).state, GrantState::kRevoked);
  }
  // Order B: renewal lands first, revocation follows — still revoked.
  {
    GrantRegistry registry(1, 100);
    registry.grant(0, 3, 10);
    EXPECT_TRUE(registry.renew(0, 3, 50));
    EXPECT_TRUE(registry.revoke(0, 50));
    EXPECT_EQ(registry.read(0).state, GrantState::kRevoked);
  }
}

TEST(Registry, DenialsExpireLikeGrants) {
  GrantRegistry registry(1, 100);
  EXPECT_TRUE(registry.deny(0, 4, 10));
  EXPECT_EQ(registry.read(0).state, GrantState::kDenied);
  EXPECT_EQ(registry.expire(110), 1u);
  EXPECT_EQ(registry.read(0).state, GrantState::kExpired);
}

TEST(Registry, DenialCannotClobberAnotherDronesLiveGrant) {
  GrantRegistry registry(1, 100);
  EXPECT_TRUE(registry.grant(0, 1, 10));
  // Another drone's denied dialogue must not erase the holder's lease.
  EXPECT_FALSE(registry.deny(0, 2, 20));
  EXPECT_EQ(registry.read(0).state, GrantState::kGranted);
  EXPECT_EQ(registry.read(0).holder, 1u);
  EXPECT_EQ(registry.stats().conflicts, 1u);
  EXPECT_EQ(registry.stats().denials, 0u);
  // The holder being denied afresh DOES replace its own grant...
  EXPECT_TRUE(registry.deny(0, 1, 30));
  EXPECT_EQ(registry.read(0).state, GrantState::kDenied);
  // ...and once the lease has lapsed, anyone's denial lands.
  EXPECT_EQ(registry.expire(130), 1u);
  EXPECT_TRUE(registry.deny(0, 2, 140));
}

TEST(Registry, RevokedCellAgesOutAfterOneTtl) {
  GrantRegistry registry(1, 100);
  EXPECT_TRUE(registry.grant(0, 3, 10));
  EXPECT_TRUE(registry.revoke(0, 50));
  EXPECT_EQ(registry.read(0).expires_seq, 150u);  // keep-clear window
  EXPECT_EQ(registry.expire(149), 0u);
  EXPECT_EQ(registry.expire(150), 1u);  // then it ages out like a denial
  EXPECT_EQ(registry.read(0).state, GrantState::kExpired);
}

TEST(Registry, RevokeWithoutGrantIsFalse) {
  GrantRegistry registry(1, 100);
  EXPECT_FALSE(registry.revoke(0, 10));
  registry.deny(0, 1, 10);
  EXPECT_FALSE(registry.revoke(0, 20));  // only live grants revoke
}

TEST(Registry, ExpiredButUnsweptGrantCannotBeRevoked) {
  GrantRegistry registry(1, 100);
  EXPECT_TRUE(registry.grant(0, 3, 10));
  // The lease ended at 110. No expire() has run, so the slot still reads
  // kGranted, but there is no live grant left to revoke.
  EXPECT_EQ(registry.read(0).state, GrantState::kGranted);
  EXPECT_FALSE(registry.revoke(0, 200));
  EXPECT_EQ(registry.stats().revocations, 0u);
  EXPECT_EQ(registry.expire(200), 1u);
  EXPECT_EQ(registry.read(0).state, GrantState::kExpired);
}

TEST(Registry, ValidatesCellAndConstruction) {
  EXPECT_THROW(GrantRegistry(0, 10), std::invalid_argument);
  EXPECT_THROW(GrantRegistry(1, 0), std::invalid_argument);
  GrantRegistry registry(2, 10);
  EXPECT_THROW((void)registry.read(-1), std::out_of_range);
  EXPECT_THROW((void)registry.read(2), std::out_of_range);
  EXPECT_THROW((void)registry.grant(5, 0, 0), std::out_of_range);
}

// ------------------------------------------------- service (direct admit) --

interaction::AckAction transition_to(std::uint32_t stream, DialogueState to,
                                     std::uint64_t tick) {
  interaction::AckAction action;
  action.stream_id = stream;
  action.to = to;
  action.tick = tick;
  return action;
}

interaction::SignEvent begin_event(std::uint32_t stream, signs::HumanSign label,
                                   std::uint64_t seq) {
  interaction::SignEvent event;
  event.stream_id = stream;
  event.kind = interaction::SignEventKind::kBegin;
  event.label = label;
  event.onset_seq = seq;
  event.end_seq = seq;
  event.confidence = 1.0;
  return event;
}

TEST(Service, ArbitratesDirectAdmittedContention) {
  CoordinationConfig config;
  config.cells = 4;
  CoordinationService service(config);
  service.register_drone(drone(0, 1, 0, 0.9));
  service.register_drone(drone(1, 1, 0, 0.2));

  service.admit_transition(nullptr, transition_to(0, DialogueState::kAttending, 10));
  service.admit_transition(nullptr, transition_to(1, DialogueState::kAttending, 12));

  const auto log = service.arbitration_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].loser, 1u);
  EXPECT_EQ(log[0].winner, 0u);
  EXPECT_EQ(log[0].human_id, 0);
  EXPECT_EQ(service.stats().arbitrations, 1u);
  // No source service bound for the loser: the decision is logged but no
  // abort can be delivered.
  EXPECT_EQ(service.stats().aborts_issued, 0u);
  service.stop();
}

TEST(Service, ProcessingErrorReachesTheAdmittingCaller) {
  // Events are processed on the admitting thread: an observer's exception
  // comes out of the admit call itself, and the next event still runs.
  CoordinationConfig config;
  config.cells = 2;
  CoordinationService service(config);
  service.register_drone(drone(0, 0, 0));
  service.register_drone(drone(1, 1, 1));
  bool fail = true;
  service.set_registry_observer([&fail](const GrantUpdate&) {
    if (std::exchange(fail, false)) throw std::runtime_error("observer");
  });

  EXPECT_THROW(service.admit_outcome({protocol::Outcome::kGranted, 0, 10}),
               std::runtime_error);
  service.admit_outcome({protocol::Outcome::kGranted, 1, 11});

  EXPECT_EQ(service.stats().events, 4u);
  // The grant the observer was told about stands; so does the next one.
  EXPECT_EQ(service.grant(0).holder, 0u);
  EXPECT_EQ(service.grant(1).state, GrantState::kGranted);
  EXPECT_EQ(service.grant(1).holder, 1u);
  EXPECT_EQ(service.registry_stats().grants, 2u);
  service.stop();
}

TEST(Service, ConcurrentAdmissionIsExactWhenTheCallersReturn) {
  // Four threads each run kHumans contention pairs (drone 2h beats drone
  // 2h + 1 on battery), then grant the winner the human's cell. Every
  // admission is processed before it returns, so right after join — with
  // no checkpoint call — the counters, the log and the registry are exact.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kHumans = 50;  // per thread
  constexpr std::uint32_t kPairs = kThreads * kHumans;
  CoordinationConfig config;
  config.cells = kPairs;
  config.grant_ttl = 1'000'000;
  CoordinationService service(config);
  for (std::uint32_t h = 0; h < kPairs; ++h) {
    const int human = static_cast<int>(h);
    service.register_drone(drone(2 * h, human, human, 0.9));
    service.register_drone(drone(2 * h + 1, human, human, 0.2));
  }

  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, t] {
      for (std::uint32_t h = t * kHumans; h < (t + 1) * kHumans; ++h) {
        const std::uint64_t seq = 10 + h;
        service.admit_transition(nullptr,
                                 transition_to(2 * h, DialogueState::kAttending, seq));
        service.admit_transition(
            nullptr, transition_to(2 * h + 1, DialogueState::kAttending, seq));
        service.admit_outcome({protocol::Outcome::kGranted, 2 * h, seq});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(service.stats().events, 2 * kPairs + 3 * kPairs);
  EXPECT_EQ(service.stats().arbitrations, kPairs);
  std::vector<ArbitrationDecision> log = service.arbitration_log();
  ASSERT_EQ(log.size(), kPairs);
  std::sort(log.begin(), log.end(),
            [](const ArbitrationDecision& a, const ArbitrationDecision& b) {
              return a.human_id < b.human_id;
            });
  for (std::uint32_t h = 0; h < kPairs; ++h) {
    EXPECT_EQ(log[h].human_id, static_cast<int>(h));
    EXPECT_EQ(log[h].winner, 2 * h);
    EXPECT_EQ(log[h].loser, 2 * h + 1);
    EXPECT_EQ(log[h].reason, AbortReason::kLostArbitration);
    EXPECT_EQ(service.grant(static_cast<int>(h)).holder, 2 * h);
  }
  EXPECT_EQ(service.registry_stats().grants, kPairs);
  EXPECT_EQ(service.registry_stats().conflicts, 0u);
  service.stop();
}

/// Every journaled Observation record of `stream`, in journal order.
std::vector<protocol::wire::ObservationRecord> journaled_samples(
    const protocol::EventJournal& journal, std::uint32_t stream) {
  std::vector<protocol::wire::AnyRecord> records;
  protocol::wire::WireError error;
  EXPECT_TRUE(protocol::wire::parse_all(journal.bytes(), records, error));
  std::vector<protocol::wire::ObservationRecord> samples;
  for (const protocol::wire::AnyRecord& record : records) {
    const auto* o = std::get_if<protocol::wire::ObservationRecord>(&record);
    if (o != nullptr && o->stream_id == stream) samples.push_back(*o);
  }
  return samples;
}

TEST(Service, ArbitrationAbortLandsBeforeTheLosersNextFrame) {
  // Drone 0 attends human 7 first; drone 1's attention then loses the
  // arbitration. The coordinator only requests the abort; the loser's next
  // frame applies it before its own input.
  CoordinationConfig config;
  config.cells = 2;
  CoordinationService coordinator(config);
  interaction::InteractionService dialogue;
  protocol::EventJournal journal;
  protocol::JournalRecorder recorder(journal);
  recorder.attach_interaction(dialogue, &coordinator);
  recorder.attach_coordination(coordinator);
  coordinator.register_drone(drone(0, 0, 7));
  coordinator.register_drone(drone(1, 1, 7));

  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    dialogue.inject_observation(0, ++seq, signs::HumanSign::kAttentionGained, 0.9);
  }
  // The coordinator processes each frame's step before inject_observation
  // returns, so the abort is requested right after the losing frame.
  for (int i = 0; i < 12; ++i) {
    dialogue.inject_observation(1, ++seq, signs::HumanSign::kAttentionGained, 0.9);
  }
  dialogue.drain();

  const auto log = coordinator.arbitration_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].loser, 1u);
  EXPECT_EQ(dialogue.outcome(1), protocol::Outcome::kAborted);

  const auto samples = journaled_samples(journal, 1);
  ASSERT_EQ(samples.size(), 13u);  // 12 frames + 1 abort
  const auto abort = std::find_if(
      samples.begin(), samples.end(),
      [](const protocol::wire::ObservationRecord& o) { return o.abort != 0; });
  ASSERT_NE(abort, samples.end());
  ASSERT_NE(abort, samples.begin());
  ASSERT_NE(abort + 1, samples.end());
  // Stamped with the losing frame, and applied before the next one.
  EXPECT_EQ(abort->sequence, (abort - 1)->sequence);
  EXPECT_EQ((abort + 1)->sequence, abort->sequence + 1);
  EXPECT_EQ((abort + 1)->abort, 0);
  EXPECT_EQ(dialogue.outcome_record(1).final_sequence, abort->sequence);

  const auto aborts = std::count_if(
      samples.begin(), samples.end(),
      [](const protocol::wire::ObservationRecord& o) { return o.abort != 0; });
  EXPECT_EQ(coordinator.stats().aborts_issued, static_cast<std::uint64_t>(aborts));
  EXPECT_EQ(coordinator.stats().aborts_deferred, 0u);
  dialogue.stop();
  coordinator.stop();
}

TEST(Service, RegisterDroneRejectsTraceAliasingIds) {
  // make_trace_id keeps 16 bits of drone + 1: drone 65535 would get the
  // zero "no context" id and d + 65536 would alias d.
  ASSERT_EQ(telemetry::kMaxTraceStreamId, 65534u);
  CoordinationConfig config;
  config.cells = 2;
  CoordinationService service(config);
  service.register_drone(drone(65534, 0, 0));
  for (const std::uint32_t bad : {65535u, 65536u, 65536u + 65534u,
                                  std::numeric_limits<std::uint32_t>::max()}) {
    EXPECT_THROW(service.register_drone(drone(bad, 1, 1)), std::invalid_argument)
        << bad;
  }
  service.admit_outcome({protocol::Outcome::kGranted, 65534, 100});

  EXPECT_EQ(service.grant(0).state, GrantState::kGranted);
  EXPECT_EQ(service.grant(0).holder, 65534u);
  EXPECT_EQ(service.grant(1).state, GrantState::kNone);
  // The refused registrations admitted nothing: register + outcome only.
  EXPECT_EQ(service.stats().events, 2u);
  EXPECT_EQ(service.stats().unknown_drone_events, 0u);
  service.stop();
}

TEST(Service, EveryAdmissionPathRejectsTraceAliasingIds) {
  // One gate in admit(): every entry point accepts the last drone id
  // (65534) and the last sequence (2^48 - 1), and refuses the next one
  // before anything is admitted.
  constexpr std::uint32_t kLastDrone = telemetry::kMaxTraceStreamId;
  constexpr std::uint64_t kLastSequence = telemetry::kMaxTraceSequence;
  ASSERT_EQ(kLastDrone, 65534u);
  ASSERT_EQ(kLastSequence, (std::uint64_t{1} << 48) - 1);
  const auto transition = [](std::uint32_t drone_id, std::uint64_t tick) {
    interaction::AckAction action;
    action.stream_id = drone_id;
    action.to = DialogueState::kIdle;
    action.tick = tick;
    return action;
  };
  const auto sign_event = [](std::uint32_t drone_id, std::uint64_t onset) {
    interaction::SignEvent event;
    event.stream_id = drone_id;
    event.kind = interaction::SignEventKind::kBegin;
    event.onset_seq = onset;
    return event;
  };
  CoordinationConfig config;
  config.cells = 2;
  CoordinationService service(config);

  service.update_battery(kLastDrone, 0.5);
  service.admit_transition(nullptr, transition(kLastDrone, 1));
  service.admit_sign_event(sign_event(kLastDrone, 2));
  service.admit_outcome({protocol::Outcome::kAborted, kLastDrone, 3});
  for (const std::uint32_t bad : {kLastDrone + 1, 65536u + 7u,
                                  std::numeric_limits<std::uint32_t>::max()}) {
    EXPECT_THROW(service.update_battery(bad, 0.5), std::invalid_argument) << bad;
    EXPECT_THROW(service.admit_transition(nullptr, transition(bad, 1)),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(service.admit_sign_event(sign_event(bad, 2)), std::invalid_argument)
        << bad;
    EXPECT_THROW(service.admit_outcome({protocol::Outcome::kAborted, bad, 3}),
                 std::invalid_argument)
        << bad;
  }

  for (const std::uint64_t bad : {kLastSequence + 1, ~std::uint64_t{0}}) {
    EXPECT_THROW(service.tick(bad), std::invalid_argument) << bad;
    EXPECT_THROW(service.admit_transition(nullptr, transition(0, bad)),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(service.admit_sign_event(sign_event(0, bad)), std::invalid_argument)
        << bad;
    EXPECT_THROW(service.admit_outcome({protocol::Outcome::kAborted, 0, bad}),
                 std::invalid_argument)
        << bad;
  }
  service.admit_transition(nullptr, transition(0, kLastSequence));
  service.admit_sign_event(sign_event(0, kLastSequence));
  service.admit_outcome({protocol::Outcome::kAborted, 0, kLastSequence});
  service.tick(kLastSequence);

  // Only the eight in-range events were processed.
  EXPECT_EQ(service.stats().events, 8u);
  EXPECT_EQ(service.fleet_clock(), kLastSequence);
  service.stop();
}

TEST(Service, GrantDenyAndPlanHint) {
  CoordinationConfig config;
  config.cells = 4;
  config.grant_ttl = 1000;
  CoordinationService service(config);
  service.register_drone(drone(0, 0, 0));
  service.register_drone(drone(1, 1, 1));
  service.register_drone(drone(2, 2, 2));

  service.admit_outcome({protocol::Outcome::kGranted, 0, 100});
  service.admit_outcome({protocol::Outcome::kDenied, 1, 110});
  service.admit_outcome({protocol::Outcome::kGranted, 2, 120});

  EXPECT_EQ(service.grant(0).state, GrantState::kGranted);
  EXPECT_EQ(service.grant(0).holder, 0u);
  EXPECT_EQ(service.grant(1).state, GrantState::kDenied);
  EXPECT_EQ(service.grant(2).holder, 2u);

  const orchard::PlanHint hint0 = service.plan_hint(0);
  EXPECT_EQ(hint0.granted_cells, (std::vector<int>{0}));
  EXPECT_EQ(hint0.blocked_cells, (std::vector<int>{1}));
  const orchard::PlanHint hint2 = service.plan_hint(2);
  EXPECT_EQ(hint2.granted_cells, (std::vector<int>{2}));
  service.stop();
}

TEST(Service, LateGrantFromAbortedLoserIsRefusedAsConflict) {
  CoordinationConfig config;
  config.cells = 2;
  CoordinationService service(config);
  service.register_drone(drone(0, 0, 0));
  service.register_drone(drone(1, 0, 0));

  // Winner grants first; the loser's dialogue completed anyway because the
  // abort landed after its execute finished — the registry refuses it.
  service.admit_outcome({protocol::Outcome::kGranted, 0, 100});
  service.admit_outcome({protocol::Outcome::kGranted, 1, 120});

  EXPECT_EQ(service.grant(0).holder, 0u);
  EXPECT_EQ(service.registry_stats().conflicts, 1u);
  EXPECT_EQ(service.registry_stats().grants, 1u);
  service.stop();
}

TEST(Service, HumanNoRevokesAndYesRenews) {
  CoordinationConfig config;
  config.cells = 2;
  config.grant_ttl = 500;
  CoordinationService service(config);
  service.register_drone(drone(0, 0, 0));

  service.admit_outcome({protocol::Outcome::kGranted, 0, 100});
  // A Yes at the grant sequence itself is the confirming dialogue's echo,
  // not a post-grant renewal — ignored.
  service.admit_sign_event(begin_event(0, signs::HumanSign::kYes, 100));
  EXPECT_EQ(service.registry_stats().renewals, 0u);

  service.admit_sign_event(begin_event(0, signs::HumanSign::kYes, 200));
  EXPECT_EQ(service.registry_stats().renewals, 1u);
  EXPECT_EQ(service.grant(0).expires_seq, 700u);

  service.admit_sign_event(begin_event(0, signs::HumanSign::kNo, 300));
  EXPECT_EQ(service.grant(0).state, GrantState::kRevoked);
  EXPECT_EQ(service.registry_stats().revocations, 1u);
  // Blocked for everyone now...
  EXPECT_EQ(service.plan_hint(0).granted_cells.size(), 0u);
  EXPECT_EQ(service.plan_hint(0).blocked_cells, (std::vector<int>{0}));
  // ...but only for one keep-clear TTL; then the cell is negotiable again.
  service.tick(300 + config.grant_ttl);
  EXPECT_EQ(service.grant(0).state, GrantState::kExpired);
  EXPECT_TRUE(service.plan_hint(0).blocked_cells.empty());
  service.stop();
}

TEST(Service, LeaseExpiresWhenFleetClockPassesTtl) {
  CoordinationConfig config;
  config.cells = 1;
  config.grant_ttl = 50;
  CoordinationService service(config);
  service.register_drone(drone(0, 0, 0));
  service.admit_outcome({protocol::Outcome::kGranted, 0, 100});
  EXPECT_EQ(service.grant(0).state, GrantState::kGranted);

  service.tick(149);
  EXPECT_EQ(service.grant(0).state, GrantState::kGranted);

  service.tick(150);  // expires_seq reached: the quiet fleet loses the lease
  EXPECT_EQ(service.grant(0).state, GrantState::kExpired);
  EXPECT_TRUE(service.plan_hint(0).granted_cells.empty());
  EXPECT_EQ(service.fleet_clock(), 150u);
  service.stop();
}

TEST(Service, NoAfterLeaseEndDoesNotDependOnASweep) {
  // The lease runs out at 110. A human No at 200 finds no live grant to
  // revoke, whether or not an unrelated event swept the lease first.
  for (const bool swept : {false, true}) {
    SCOPED_TRACE(swept ? "tick(150) before the No" : "no sweep before the No");
    CoordinationConfig config;
    config.cells = 1;
    config.grant_ttl = 100;
    CoordinationService service(config);
    service.register_drone(drone(0, 0, 0));
    service.admit_outcome({protocol::Outcome::kGranted, 0, 10});
    if (swept) service.tick(150);
    service.admit_sign_event(begin_event(0, signs::HumanSign::kNo, 200));
    EXPECT_TRUE(service.plan_hint(0).blocked_cells.empty());
    EXPECT_EQ(service.registry_stats().revocations, 0u);
    EXPECT_EQ(service.grant(0).state, GrantState::kExpired);
    service.stop();
  }
}

TEST(Service, ReadersSeeWholeEventsWhileAnotherThreadAdmits) {
  // One thread admits No-then-Granted pairs on one cell, the holder
  // derived from the sequence; three readers poll meanwhile. Readers take
  // the service mutex, so every kGranted record they see is one whole
  // event's: expires == granted + ttl and holder == granted_seq % 7.
  constexpr std::uint64_t kTtl = 1000;
  constexpr std::uint64_t kPairs = 10000;
  CoordinationConfig config;
  config.cells = 1;
  config.grant_ttl = kTtl;
  CoordinationService service(config);
  for (std::uint32_t id = 0; id < 7; ++id) {
    service.register_drone(drone(id, 0, static_cast<int>(id)));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> incoherent{0};

  std::vector<std::thread> readers;
  for (std::uint32_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_events = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const GrantRecord record = service.grant(0);
        if (record.state == GrantState::kGranted &&
            (record.expires_seq != record.granted_seq + kTtl ||
             record.holder != record.granted_seq % 7)) {
          incoherent.fetch_add(1, std::memory_order_relaxed);
        }
        // The one cell is granted or kept clear, never both.
        const orchard::PlanHint hint = service.plan_hint(r);
        if (hint.granted_cells.size() + hint.blocked_cells.size() > 1) {
          incoherent.fetch_add(1, std::memory_order_relaxed);
        }
        const std::uint64_t events = service.stats().events;
        if (events < last_events) {
          incoherent.fetch_add(1, std::memory_order_relaxed);
        }
        last_events = events;
      }
    });
  }

  for (std::uint64_t seq = 1; seq <= kPairs; ++seq) {
    const auto holder = static_cast<std::uint32_t>(seq % 7);
    service.admit_sign_event(begin_event(holder, signs::HumanSign::kNo, seq));
    service.admit_outcome({protocol::Outcome::kGranted, holder, seq});
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_EQ(service.registry_stats().grants, kPairs);
  EXPECT_EQ(service.registry_stats().revocations, kPairs - 1);
  EXPECT_EQ(service.registry_stats().conflicts, 0u);
  service.stop();
}

TEST(Service, UnknownDroneOutcomeIsCountedNotCrashed) {
  CoordinationService service;
  service.admit_outcome({protocol::Outcome::kGranted, 42, 10});
  EXPECT_EQ(service.stats().unknown_drone_events, 1u);
  EXPECT_EQ(service.registry_stats().grants, 0u);
  service.stop();
}

// ------------------------------------------------------ fairness aging ---

TEST(Arbiter, FairnessAgingBoundsStarvationWithinDocumentedBound) {
  // Contract (session_arbiter.hpp): with boost b > 0, a loser that keeps
  // retrying after each backoff wins within N = 1 + ceil((max_rank -
  // min_rank) / b) attempts — N = 4 with the default b = 1 — even from
  // the worst seat: entering at Attending against a perpetually Executing
  // rival with the better battery and the lower id. Without aging this
  // drone loses forever (the pre-fix starvation bug).
  SessionArbiter arbiter;  // defaults: boost 1 per loss, cap 8
  arbiter.add_drone(drone(0, 0, 0, 0.95));
  arbiter.add_drone(drone(1, 0, 0, 0.05));

  SessionArbiter::Decisions out;
  arbiter.on_phase(0, DialogueState::kExecuting, 10, out);
  ASSERT_TRUE(out.empty());

  const int kBound = 4;  // 1 + ceil((4 - 1) / 1)
  std::uint64_t seq = 10;
  int attempts = 0;
  for (;;) {
    ++attempts;
    ASSERT_LE(attempts, kBound) << "loser starved past the documented bound";
    seq = std::max(seq + 1, arbiter.retry_at(1));
    out.clear();
    arbiter.on_phase(1, DialogueState::kAttending, seq, out);
    ASSERT_EQ(out.size(), 1u) << "attempt " << attempts;
    if (out[0].loser == 0) break;  // the aged challenger finally outranks
    EXPECT_EQ(out[0].winner, 0u) << "attempt " << attempts;
    EXPECT_EQ(arbiter.losses(1), static_cast<std::uint32_t>(attempts));
    arbiter.on_dialogue_end(1, false, seq);  // aborted; settles to Idle
  }
  // The bound is exact: the aged rank first TIES Executing at N - 1
  // losses, and the losses tiebreak converts the tie into the win.
  EXPECT_EQ(attempts, kBound);
  EXPECT_EQ(out[0].winner, 1u);
  EXPECT_EQ(arbiter.losses(1), 3u);

  // A won dialogue resets the aging — the next contention starts fresh.
  arbiter.on_dialogue_end(1, true, seq);
  EXPECT_EQ(arbiter.losses(1), 0u);
  EXPECT_EQ(arbiter.retry_at(1), 0u);
}

TEST(Arbiter, LargerFairnessBoostTightensTheBound) {
  // b = 3 closes the whole Attending-to-Executing gap in one loss:
  // N = 1 + ceil(3 / 3) = 2 attempts.
  ArbitrationPolicy policy;
  policy.fairness_boost_per_loss = 3;
  SessionArbiter arbiter(policy);
  arbiter.add_drone(drone(0, 0, 0, 0.95));
  arbiter.add_drone(drone(1, 0, 0, 0.05));

  SessionArbiter::Decisions out;
  arbiter.on_phase(0, DialogueState::kExecuting, 10, out);
  arbiter.on_phase(1, DialogueState::kAttending, 11, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].loser, 1u);
  arbiter.on_dialogue_end(1, false, 11);

  out.clear();
  arbiter.on_phase(1, DialogueState::kAttending, arbiter.retry_at(1), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].loser, 0u);
  EXPECT_EQ(out[0].winner, 1u);
}

// ------------------------------------------- fleet-clock monotonicity ---

TEST(Service, StaleOutcomeCannotRegressLeaseExpiry) {
  // Outcomes carry the frame sequence they were DECIDED at; delivery can
  // lag the fleet clock arbitrarily. A lease must be stamped with the
  // monotone clock, never the stale sequence — otherwise it is born
  // (nearly) expired and the next sweep revokes space the human just
  // granted (the pre-fix lease-regression bug).
  CoordinationConfig config;
  config.cells = 2;
  config.grant_ttl = 500;
  CoordinationService service(config);
  service.register_drone(drone(0, 0, 0));
  service.register_drone(drone(1, 1, 1));

  service.tick(1000);
  service.admit_outcome({protocol::Outcome::kGranted, 0, 100});
  // Interleaved out-of-order delivery: another stale sequence while the
  // clock holds at 1000 (sequences must never move it backwards).
  service.admit_outcome({protocol::Outcome::kGranted, 1, 900});

  EXPECT_EQ(service.fleet_clock(), 1000u);
  EXPECT_EQ(service.grant(0).state, GrantState::kGranted);
  EXPECT_EQ(service.grant(0).granted_seq, 1000u);
  EXPECT_EQ(service.grant(0).expires_seq, 1500u);
  EXPECT_EQ(service.grant(1).granted_seq, 1000u);
  EXPECT_EQ(service.grant(1).expires_seq, 1500u);

  service.tick(1499);
  EXPECT_EQ(service.grant(0).state, GrantState::kGranted);
  EXPECT_EQ(service.grant(1).state, GrantState::kGranted);
  service.tick(1500);
  EXPECT_EQ(service.grant(0).state, GrantState::kExpired);
  EXPECT_EQ(service.grant(1).state, GrantState::kExpired);
  service.stop();
}

TEST(Service, StaleRenewalNeverShortensLease) {
  CoordinationConfig config;
  config.cells = 1;
  config.grant_ttl = 500;
  CoordinationService service(config);
  service.register_drone(drone(0, 0, 0));

  service.admit_outcome({protocol::Outcome::kGranted, 0, 1000});
  EXPECT_EQ(service.grant(0).expires_seq, 1500u);

  service.admit_sign_event(begin_event(0, signs::HumanSign::kYes, 1400));
  EXPECT_EQ(service.grant(0).expires_seq, 1900u);

  // A reordered stale Yes (fused at frame 1100, delivered late) is still
  // a valid post-grant renewal, but must never pull the expiry back in.
  service.admit_sign_event(begin_event(0, signs::HumanSign::kYes, 1100));
  EXPECT_EQ(service.grant(0).state, GrantState::kGranted);
  EXPECT_EQ(service.grant(0).expires_seq, 1900u);
  service.stop();
}

TEST(Registry, StaleRenewalNeverShrinksExpiry) {
  GrantRegistry registry(1, 100);
  EXPECT_TRUE(registry.grant(0, 3, 10));
  EXPECT_EQ(registry.read(0).expires_seq, 110u);
  EXPECT_TRUE(registry.renew(0, 3, 90));
  EXPECT_EQ(registry.read(0).expires_seq, 190u);
  // Out-of-order renewal with an older sequence: monotone lease end.
  EXPECT_TRUE(registry.renew(0, 3, 50));
  EXPECT_EQ(registry.read(0).expires_seq, 190u);
  EXPECT_EQ(registry.read(0).renewals, 2u);
}

// ----------------------------------------------------------- end to end ---

class FleetEndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reference_ = new recognition::SaxSignRecognizer(
        recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
  }
  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
  }

  static recognition::SaxSignRecognizer* reference_;
};

recognition::SaxSignRecognizer* FleetEndToEnd::reference_ = nullptr;

/// Runs `fleet` through the full stack and returns after everything
/// settled (including the abort round trip). With a `recorder`, the
/// journal hooks take bind()'s place.
void run_fleet(const recognition::SaxSignRecognizer& reference,
               const ContentionFleet& fleet,
               CoordinationService& coordinator,
               interaction::InteractionService& dialogue,
               protocol::JournalRecorder* recorder = nullptr) {
  if (recorder != nullptr) {
    recorder->attach_interaction(dialogue, &coordinator);
    recorder->attach_coordination(coordinator);
  } else {
    coordinator.bind(dialogue);
  }
  for (const DroneDescriptor& descriptor : fleet.drones) {
    coordinator.register_drone(descriptor);
  }
  const signs::MultiDroneFeed feed(make_fleet_feed_config(fleet));
  recognition::PerceptionServiceConfig perception_config;
  perception_config.shards = 2;
  recognition::PerceptionService perception(
      reference.config(), reference.database_ptr(), dialogue.callback(),
      perception_config);

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < fleet.scripts.size(); ++s) {
    producers.emplace_back([&, s] {
      const std::uint64_t period = feed.script_period(s);
      for (std::uint64_t t = 0; t < period; ++t) {
        perception.submit(static_cast<std::uint32_t>(s),
                          feed.render_frame(s, t));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (int round = 0; round < 3; ++round) {
    perception.drain();
    dialogue.drain();
  }
  perception.stop();
}

TEST_F(FleetEndToEnd, ContentionPairResolvesAsScripted) {
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  const ContentionFleet fleet = make_contention_fleet(2, grammar);
  ASSERT_EQ(fleet.pairs.size(), 1u);
  const PairExpectation& pair = fleet.pairs[0];

  CoordinationConfig config;
  config.cells = 1;
  config.grant_ttl = 1'000'000;
  CoordinationService coordinator(config);
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion =
      interaction::FusionPolicy::matching(reference_->config());
  interaction::InteractionService dialogue(
      dialogue_config, interaction::CommandGrammar(grammar.rules()));

  run_fleet(*reference_, fleet, coordinator, dialogue);

  // Exactly one drone holds the cell — the scripted winner — and the
  // loser was aborted through the external-abort hook.
  const GrantRecord record = coordinator.grant(pair.cell);
  EXPECT_EQ(record.state, GrantState::kGranted);
  EXPECT_EQ(record.holder, pair.winner);
  EXPECT_EQ(dialogue.outcome(pair.winner), protocol::Outcome::kGranted);
  EXPECT_EQ(dialogue.outcome(pair.loser), protocol::Outcome::kAborted);
  EXPECT_EQ(coordinator.registry_stats().conflicts, 0u);
  EXPECT_EQ(coordinator.stats().arbitrations, 1u);
  EXPECT_EQ(coordinator.stats().aborts_issued, 1u);

  const auto log = coordinator.arbitration_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].loser, pair.loser);
  EXPECT_EQ(log[0].winner, pair.winner);

  // The hand-off: the winner's plan hint carries the cell, the loser's
  // does not.
  EXPECT_EQ(coordinator.plan_hint(pair.winner).granted_cells,
            (std::vector<int>{pair.cell}));
  EXPECT_TRUE(coordinator.plan_hint(pair.loser).granted_cells.empty());

  dialogue.stop();
  coordinator.stop();
}

TEST_F(FleetEndToEnd, InlineArbitrationCannotDeadlockTheShards) {
  // Both shards arbitrate inline while holding their own session lock and
  // wait on each other at the coordinator's mutex; the coordinator
  // requests aborts without taking the loser's session lock, so the run
  // still completes. Which drone of a pair wins still races on thread
  // timing (ROADMAP "Deterministic fleet order"), so only completion and
  // the replay are asserted.
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  const ContentionFleet fleet = make_contention_fleet(8, grammar);

  CoordinationConfig config;
  config.cells = fleet.pairs.size();
  config.grant_ttl = 1'000'000;
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion =
      interaction::FusionPolicy::matching(reference_->config());

  protocol::EventJournal journal;
  protocol::JournalRecorder recorder(journal);
  recorder.record_config(protocol::make_run_config(dialogue_config, config));
  CoordinationService coordinator(config);
  interaction::InteractionService dialogue(
      dialogue_config, interaction::CommandGrammar(grammar.rules()));

  run_fleet(*reference_, fleet, coordinator, dialogue, &recorder);
  dialogue.stop();
  coordinator.stop();

  std::vector<std::uint32_t> streams;
  for (std::uint32_t s = 0; s < fleet.scripts.size(); ++s) {
    EXPECT_NE(dialogue.outcome(s), protocol::Outcome::kPending) << "stream " << s;
    streams.push_back(s);
  }
  recorder.finalize(dialogue, streams, coordinator);
  const protocol::ReplayReport report =
      protocol::ReplayDriver().replay(journal.bytes());
  EXPECT_TRUE(report.ok) << report.mismatch;
}

TEST_F(FleetEndToEnd, GrantThenRevokeEndToEnd) {
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  ContentionFleet fleet;
  fleet.scripts.push_back(make_grant_then_revoke_schedule(grammar));
  fleet.drones.push_back(drone(0, 0, 0));

  CoordinationConfig config;
  config.cells = 1;
  config.grant_ttl = 1'000'000;
  CoordinationService coordinator(config);
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion =
      interaction::FusionPolicy::matching(reference_->config());
  interaction::InteractionService dialogue(
      dialogue_config, interaction::CommandGrammar(grammar.rules()));

  run_fleet(*reference_, fleet, coordinator, dialogue);

  EXPECT_EQ(dialogue.outcome(0), protocol::Outcome::kGranted);
  EXPECT_EQ(coordinator.grant(0).state, GrantState::kRevoked);
  EXPECT_EQ(coordinator.registry_stats().grants, 1u);
  EXPECT_EQ(coordinator.registry_stats().revocations, 1u);
  EXPECT_TRUE(coordinator.plan_hint(0).granted_cells.empty());
  EXPECT_EQ(coordinator.plan_hint(0).blocked_cells, (std::vector<int>{0}));

  dialogue.stop();
  coordinator.stop();
}

TEST_F(FleetEndToEnd, PostGrantYesRenewsLeaseEndToEnd) {
  const interaction::CommandGrammar grammar =
      interaction::CommandGrammar::standard();
  ContentionFleet fleet;
  fleet.scripts.push_back(make_grant_then_renew_schedule(grammar));
  fleet.drones.push_back(drone(0, 0, 0));

  CoordinationConfig config;
  config.cells = 1;
  config.grant_ttl = 1'000'000;
  CoordinationService coordinator(config);
  interaction::InteractionServiceConfig dialogue_config;
  dialogue_config.fusion =
      interaction::FusionPolicy::matching(reference_->config());
  interaction::InteractionService dialogue(
      dialogue_config, interaction::CommandGrammar(grammar.rules()));

  run_fleet(*reference_, fleet, coordinator, dialogue);

  const GrantRecord record = coordinator.grant(0);
  EXPECT_EQ(record.state, GrantState::kGranted);
  EXPECT_EQ(record.holder, 0u);
  EXPECT_GE(record.renewals, 1u);
  EXPECT_GE(coordinator.registry_stats().renewals, 1u);

  dialogue.stop();
  coordinator.stop();
}

}  // namespace
}  // namespace hdc::coordination
