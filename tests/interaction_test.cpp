// Interaction layer: SignEventFuser temporal stability (zero spurious
// events under the scripted noise model), CommandGrammar classification,
// every DialogueStateMachine transition including timeout/abort edges, the
// scenario driver, and the end-to-end InteractionService loop — scripted
// noisy feed -> PerceptionService -> fuser -> FSM -> AckActions observable
// on drone::LedRing — deterministic across shard/thread counts.
#include "interaction/interaction_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "interaction/scenario.hpp"
#include "protocol/journal.hpp"
#include "protocol/wire.hpp"
#include "recognition/perception_service.hpp"
#include "signs/multi_drone_feed.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace hdc::interaction {
namespace {

using signs::HumanSign;

// ---------------------------------------------------------------- fuser ---

using Events = SignEventFuser::Events;

/// Feeds `count` identical frames, collecting every emitted event.
void feed(SignEventFuser& fuser, std::uint64_t& seq, HumanSign sign,
          double confidence, std::size_t count, std::vector<SignEvent>& out) {
  Events scratch;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = fuser.observe(seq++, sign, confidence, scratch);
    for (std::size_t k = 0; k < n; ++k) out.push_back(scratch[k]);
  }
}

TEST(FusionPolicy, ConfidenceMapsDistanceAndRejections) {
  const FusionPolicy policy;
  recognition::RecognitionResult result;
  result.accepted = true;
  result.sign = HumanSign::kYes;
  result.distance = 0.0;
  EXPECT_DOUBLE_EQ(policy.confidence_of(result), 1.0);
  result.distance = 3.25;
  EXPECT_DOUBLE_EQ(policy.confidence_of(result), 0.5);
  result.distance = 99.0;
  EXPECT_DOUBLE_EQ(policy.confidence_of(result), 0.0);
  result.distance = 1.0;
  result.accepted = false;  // rejected frames carry no evidence
  EXPECT_DOUBLE_EQ(policy.confidence_of(result), 0.0);
  result.accepted = true;
  result.sign = HumanSign::kNeutral;  // accepted-neutral = no sign
  EXPECT_DOUBLE_EQ(policy.confidence_of(result), 0.0);
}

TEST(SignEventFuser, CleanHoldYieldsExactlyOneBeginEndPair) {
  SignEventFuser fuser;
  std::uint64_t seq = 0;
  std::vector<SignEvent> events;
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 5, events);
  feed(fuser, seq, HumanSign::kYes, 0.8, 10, events);
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 8, events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, SignEventKind::kBegin);
  EXPECT_EQ(events[0].label, HumanSign::kYes);
  // Majority (3 of window 5) reached on the third Yes frame: sequence 7.
  EXPECT_EQ(events[0].onset_seq, 7u);
  EXPECT_NEAR(events[0].confidence, 0.8, 1e-12);
  EXPECT_EQ(events[1].kind, SignEventKind::kEnd);
  EXPECT_EQ(events[1].label, HumanSign::kYes);
  EXPECT_EQ(events[1].onset_seq, 7u);
  // Support holds while >= 3 Yes frames remain in the window (last at 16).
  EXPECT_EQ(events[1].end_seq, 16u);
  EXPECT_NEAR(events[1].confidence, 0.8, 1e-12);
  EXPECT_EQ(fuser.events_begun(), 1u);
  EXPECT_EQ(fuser.events_ended(), 1u);
}

TEST(SignEventFuser, OneFrameFlickerNeverOpensOrCloses) {
  SignEventFuser fuser;
  std::uint64_t seq = 0;
  std::vector<SignEvent> events;
  // A lone wrong-sign frame in a neutral stream: no event.
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 4, events);
  feed(fuser, seq, HumanSign::kNo, 0.9, 1, events);
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 6, events);
  EXPECT_TRUE(events.empty());
  // A lone wrong-sign frame inside a held sign: the event is unbroken.
  feed(fuser, seq, HumanSign::kYes, 0.8, 6, events);
  feed(fuser, seq, HumanSign::kNo, 0.9, 1, events);
  feed(fuser, seq, HumanSign::kYes, 0.8, 6, events);
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 8, events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, SignEventKind::kBegin);
  EXPECT_EQ(events[1].kind, SignEventKind::kEnd);
  EXPECT_EQ(events[0].label, HumanSign::kYes);
  EXPECT_EQ(events[1].label, HumanSign::kYes);
}

TEST(SignEventFuser, RejectGapsAreBridged) {
  SignEventFuser fuser;
  std::uint64_t seq = 0;
  std::vector<SignEvent> events;
  feed(fuser, seq, HumanSign::kYes, 0.7, 4, events);
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 2, events);  // two-frame dropout
  feed(fuser, seq, HumanSign::kYes, 0.7, 3, events);
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 2, events);
  feed(fuser, seq, HumanSign::kYes, 0.7, 3, events);
  std::size_t begins = 0;
  for (const SignEvent& e : events) begins += e.kind == SignEventKind::kBegin;
  EXPECT_EQ(begins, 1u);  // one utterance despite the dropouts
  EXPECT_TRUE(fuser.active());
  Events scratch;
  EXPECT_EQ(fuser.finish(scratch), 1u);
  EXPECT_EQ(scratch[0].kind, SignEventKind::kEnd);
  EXPECT_FALSE(fuser.active());
}

TEST(SignEventFuser, ConfidenceHysteresisGatesOnsetNotHold) {
  SignEventFuser fuser;  // onset 0.35, release 0.18
  std::uint64_t seq = 0;
  std::vector<SignEvent> events;
  // Below the onset bar: majority alone must not open.
  feed(fuser, seq, HumanSign::kYes, 0.30, 8, events);
  EXPECT_TRUE(events.empty());
  // Confident frames open it...
  feed(fuser, seq, HumanSign::kYes, 0.60, 5, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SignEventKind::kBegin);
  // ...and borderline frames above the release bar keep it open.
  feed(fuser, seq, HumanSign::kYes, 0.25, 10, events);
  EXPECT_EQ(events.size(), 1u);
  EXPECT_TRUE(fuser.active());
  // Confidence collapse below release closes it even with majority.
  feed(fuser, seq, HumanSign::kYes, 0.01, 10, events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, SignEventKind::kEnd);
}

TEST(SignEventFuser, MinHoldDelaysTheClose) {
  FusionPolicy policy;
  policy.window = 3;
  policy.majority = 2;
  policy.release_misses = 1;
  policy.min_hold = 6;
  SignEventFuser fuser(policy);
  std::uint64_t seq = 0;
  std::vector<SignEvent> events;
  feed(fuser, seq, HumanSign::kNo, 0.9, 2, events);      // opens at seq 1
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 3, events); // misses immediately
  ASSERT_EQ(events.size(), 1u);  // still open: held < min_hold
  EXPECT_TRUE(fuser.active());
  feed(fuser, seq, HumanSign::kNeutral, 0.0, 2, events);
  ASSERT_EQ(events.size(), 2u);  // min_hold reached -> close fires
  EXPECT_EQ(events[1].kind, SignEventKind::kEnd);
}

TEST(SignEventFuser, LabelSwitchClosesThenOpensInOneObserve) {
  SignEventFuser fuser;
  std::uint64_t seq = 0;
  std::vector<SignEvent> events;
  feed(fuser, seq, HumanSign::kYes, 0.8, 8, events);
  feed(fuser, seq, HumanSign::kNo, 0.8, 8, events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, SignEventKind::kBegin);
  EXPECT_EQ(events[0].label, HumanSign::kYes);
  EXPECT_EQ(events[1].kind, SignEventKind::kEnd);
  EXPECT_EQ(events[1].label, HumanSign::kYes);
  EXPECT_EQ(events[2].kind, SignEventKind::kBegin);
  EXPECT_EQ(events[2].label, HumanSign::kNo);
  // The End and the new Begin coincide on one frame.
  EXPECT_EQ(events[2].onset_seq, 12u);
}

TEST(SignEventFuser, ServiceRejectsInvalidPolicyAtConstruction) {
  // A bad fusion policy must fail when the service is built, not later on
  // a shard thread when the first session is created.
  InteractionServiceConfig config;
  config.fusion.majority = config.fusion.window + 4;
  EXPECT_THROW(InteractionService{config}, std::invalid_argument);
}

TEST(SignEventFuser, ValidatesPolicy) {
  FusionPolicy bad;
  bad.window = 0;
  EXPECT_THROW(SignEventFuser{bad}, std::invalid_argument);
  bad = FusionPolicy{};
  bad.majority = bad.window + 1;
  EXPECT_THROW(SignEventFuser{bad}, std::invalid_argument);
  bad = FusionPolicy{};
  bad.release_misses = 0;
  EXPECT_THROW(SignEventFuser{bad}, std::invalid_argument);
}

// -------------------------------------------------------------- grammar ---

TEST(CommandGrammar, StandardTableClassification) {
  const CommandGrammar grammar = CommandGrammar::standard();
  using S = std::vector<HumanSign>;
  const auto classify = [&](const S& buffer) { return grammar.classify(buffer); };

  MatchResult m = classify({HumanSign::kYes});
  EXPECT_EQ(m.state, MatchState::kCompleteExtendable);
  ASSERT_NE(m.rule, nullptr);
  EXPECT_EQ(m.rule->command.kind, DroneCommandKind::kApproach);

  m = classify({HumanSign::kYes, HumanSign::kYes});
  EXPECT_EQ(m.state, MatchState::kComplete);
  ASSERT_NE(m.rule, nullptr);
  EXPECT_EQ(m.rule->command.kind, DroneCommandKind::kLand);
  EXPECT_EQ(m.rule->command.execute_pattern, drone::PatternType::kLanding);
  EXPECT_EQ(m.rule->command.execute_ring, drone::RingMode::kLanding);

  m = classify({HumanSign::kNo});
  EXPECT_EQ(m.state, MatchState::kCompleteExtendable);
  EXPECT_EQ(m.rule->command.kind, DroneCommandKind::kRetreat);

  m = classify({HumanSign::kNo, HumanSign::kNo});
  EXPECT_EQ(m.state, MatchState::kComplete);
  EXPECT_EQ(m.rule->command.kind, DroneCommandKind::kLeave);

  EXPECT_EQ(classify({HumanSign::kYes, HumanSign::kNo}).state, MatchState::kDeadEnd);
  EXPECT_EQ(classify({}).state, MatchState::kDeadEnd);
  EXPECT_EQ(classify({HumanSign::kYes, HumanSign::kYes, HumanSign::kYes}).state,
            MatchState::kDeadEnd);
  EXPECT_EQ(grammar.max_sequence_length(), 2u);
}

TEST(CommandGrammar, PureFixHasPrefixState) {
  CommandGrammar grammar(
      {{{HumanSign::kYes, HumanSign::kNo},
        {DroneCommandKind::kLand, drone::PatternType::kLanding,
         drone::RingMode::kLanding}}});
  EXPECT_EQ(grammar.classify(std::vector<HumanSign>{HumanSign::kYes}).state,
            MatchState::kPrefix);
}

TEST(CommandGrammar, ValidatesRuleTable) {
  using Rules = std::vector<CommandRule>;
  EXPECT_THROW(CommandGrammar{Rules{}}, std::invalid_argument);
  EXPECT_THROW(
      CommandGrammar(Rules{{{}, {DroneCommandKind::kLand, {}, {}}}}),
      std::invalid_argument);
  EXPECT_THROW(CommandGrammar(Rules{{{HumanSign::kNeutral},
                                     {DroneCommandKind::kLand, {}, {}}}}),
               std::invalid_argument);
  EXPECT_THROW(
      CommandGrammar(Rules{{{HumanSign::kYes}, {DroneCommandKind::kNone, {}, {}}}}),
      std::invalid_argument);
  EXPECT_THROW(
      CommandGrammar(Rules{
          {{HumanSign::kYes}, {DroneCommandKind::kLand, {}, {}}},
          {{HumanSign::kYes}, {DroneCommandKind::kApproach, {}, {}}}}),
      std::invalid_argument);
}

// --------------------------------------------------------- grammar loader ---

TEST(GrammarLoader, ParsesSectionsRulesAndComments) {
  const GrammarLibrary library = CommandGrammar::parse_library(
      "# orchard deployment\n"
      "[default]\n"
      "Yes -> Approach   # trailing comment\n"
      "Yes Yes -> Land\n"
      "No\tNo -> Leave\n"
      "\n"
      "[human:7]\n"
      "AttentionGained Yes -> Land\n");
  ASSERT_EQ(library.vocabularies().size(), 2u);
  const CommandGrammar& grammar = library.at("default");
  ASSERT_EQ(grammar.rules().size(), 3u);
  EXPECT_EQ(grammar.rules()[0].sequence,
            (std::vector<HumanSign>{HumanSign::kYes}));
  EXPECT_EQ(grammar.rules()[0].command.kind, DroneCommandKind::kApproach);
  // File-defined commands get the same embodiment as the built-in table.
  EXPECT_EQ(grammar.rules()[1].command.execute_pattern,
            drone::PatternType::kLanding);
  EXPECT_EQ(grammar.rules()[1].command.execute_ring, drone::RingMode::kLanding);
  EXPECT_EQ(grammar.rules()[2].sequence,
            (std::vector<HumanSign>{HumanSign::kNo, HumanSign::kNo}));

  const CommandGrammar* human7 = library.find("human:7");
  ASSERT_NE(human7, nullptr);
  ASSERT_EQ(human7->rules().size(), 1u);
  EXPECT_EQ(human7->rules()[0].sequence,
            (std::vector<HumanSign>{HumanSign::kAttentionGained,
                                    HumanSign::kYes}));
  EXPECT_EQ(library.find("nobody"), nullptr);
  EXPECT_THROW((void)library.at("nobody"), std::out_of_range);
}

TEST(GrammarLoader, RulesBeforeAnySectionBelongToDefault) {
  const GrammarLibrary library =
      CommandGrammar::parse_library("Yes -> Approach\nNo -> Retreat\n");
  ASSERT_EQ(library.vocabularies().size(), 1u);
  EXPECT_EQ(library.vocabularies()[0].first, "default");
  EXPECT_EQ(library.at("default").rules().size(), 2u);
}

TEST(GrammarLoader, MalformedInputsFailWithOriginAndLine) {
  const auto expect_fail = [](const char* text, const char* needle) {
    try {
      (void)CommandGrammar::parse_library(text, "bad.grammar");
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("bad.grammar:"),
                std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << error.what();
    }
  };
  expect_fail("Yes Approach\n", "expected");              // no arrow
  expect_fail("Maybe -> Approach\n", "unknown sign");
  expect_fail("Yes -> Hover\n", "unknown command");
  expect_fail("-> Approach\n", "no sign sequence");
  expect_fail("Yes -> Approach Land\n", "exactly one command");
  expect_fail("[default\nYes -> Approach\n", "unterminated");
  expect_fail("[]\nYes -> Approach\n", "empty vocabulary name");
  expect_fail("[a]\nYes -> Approach\n[a]\nNo -> Leave\n", "duplicate");
  expect_fail("", "no rules");
  expect_fail("[empty]\n", "has no rules");
  // Section-level failures blame the section's OWN header line, not the
  // end of the file.
  expect_fail("[empty]\n[ok]\nYes -> Approach\n", "bad.grammar:1:");
  expect_fail("[ok]\nYes -> Approach\n[dup]\nYes -> Land\nYes -> Leave\n",
              "bad.grammar:3:");
  // Table-level validation (duplicate sequence) surfaces as a parse error.
  expect_fail("Yes -> Approach\nYes -> Land\n", "duplicate sign sequence");
  // Neutral is a sign name, but not a communicative one.
  expect_fail("Neutral -> Approach\n", "communicative");
}

TEST(GrammarLoader, LoadsFileAndPicksDefaultVocabulary) {
  const std::string path = ::testing::TempDir() + "/hdc_loader_test.grammar";
  {
    std::ofstream out(path);
    out << "[scout]\nYes -> Approach\n[default]\nNo No -> Leave\n";
  }
  const CommandGrammar grammar = CommandGrammar::load(path);
  ASSERT_EQ(grammar.rules().size(), 1u);
  EXPECT_EQ(grammar.rules()[0].command.kind, DroneCommandKind::kLeave);

  // A single-vocabulary file needs no [default] section.
  {
    std::ofstream out(path);
    out << "[solo]\nYes -> Land\n";
  }
  EXPECT_EQ(CommandGrammar::load(path).rules()[0].command.kind,
            DroneCommandKind::kLand);

  // Two vocabularies, neither "default": ambiguous.
  {
    std::ofstream out(path);
    out << "[a]\nYes -> Land\n[b]\nNo -> Leave\n";
  }
  EXPECT_THROW((void)CommandGrammar::load(path), std::runtime_error);
  EXPECT_THROW((void)CommandGrammar::load("/nonexistent/x.grammar"),
               std::runtime_error);
}

// ------------------------------------------------------------------ FSM ---

SignEvent make_event(SignEventKind kind, HumanSign label, std::uint64_t seq) {
  SignEvent event;
  event.kind = kind;
  event.label = label;
  event.onset_seq = seq;
  event.end_seq = seq;
  event.confidence = 0.8;
  return event;
}

struct FsmHarness {
  CommandGrammar grammar = CommandGrammar::standard();
  DialogueConfig config;
  DialogueStateMachine fsm{7, &grammar, DialogueConfig{}};
  DialogueStateMachine::Actions actions;

  void begin(HumanSign sign, std::uint64_t seq) {
    fsm.on_event(make_event(SignEventKind::kBegin, sign, seq), actions);
    fsm.on_tick(seq, actions);
  }
  void idle_until(std::uint64_t seq) { fsm.on_tick(seq, actions); }
  /// The most recent action, failing the test if none exists.
  const AckAction& last() const {
    EXPECT_FALSE(actions.empty());
    return actions.back();
  }
};

TEST(DialogueStateMachine, AttentionOpensSessionAndAcksOnRing) {
  FsmHarness h;
  EXPECT_EQ(h.fsm.state(), DialogueState::kIdle);
  h.begin(HumanSign::kYes, 1);  // a sign without attention is ignored
  EXPECT_EQ(h.fsm.state(), DialogueState::kIdle);
  EXPECT_TRUE(h.actions.empty());
  h.begin(HumanSign::kAttentionGained, 5);
  EXPECT_EQ(h.fsm.state(), DialogueState::kAttending);
  // A freshly opened session is pending with no deciding sequence yet.
  EXPECT_EQ(h.fsm.outcome_record(),
            (protocol::OutcomeRecord{protocol::Outcome::kPending, 7, 0}));
  EXPECT_TRUE(h.last().set_ring);
  EXPECT_EQ(h.last().ring, drone::RingMode::kAllGreen);
  EXPECT_TRUE(h.last().fly_pattern);
  EXPECT_EQ(h.last().pattern, drone::PatternType::kNodYes);
}

TEST(DialogueStateMachine, FullConfirmedCycleForTwoSignCommand) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  h.begin(HumanSign::kYes, 20);
  EXPECT_EQ(h.fsm.state(), DialogueState::kCommandPending);
  h.begin(HumanSign::kYes, 40);  // within the gap: extends to [Yes, Yes]
  EXPECT_EQ(h.fsm.state(), DialogueState::kConfirming);
  EXPECT_EQ(h.last().command, DroneCommandKind::kLand);
  EXPECT_EQ(h.last().ring, drone::RingMode::kLanding);  // intent preview
  EXPECT_EQ(h.last().pattern, drone::PatternType::kNodYes);
  h.begin(HumanSign::kYes, 60);  // confirm
  EXPECT_EQ(h.fsm.state(), DialogueState::kExecuting);
  EXPECT_EQ(h.last().pattern, drone::PatternType::kLanding);
  h.idle_until(60 + h.fsm.config().execute_ticks);
  EXPECT_EQ(h.fsm.state(), DialogueState::kIdle);
  EXPECT_EQ(h.fsm.outcome(), protocol::Outcome::kGranted);
  // The record carries the FSM's stream id and the deciding sequence —
  // what the fleet layer keys grants on.
  EXPECT_EQ(h.fsm.outcome_record(),
            (protocol::OutcomeRecord{protocol::Outcome::kGranted, 7,
                                     60 + h.fsm.config().execute_ticks}));
  EXPECT_EQ(h.last().event, std::string("execute:done"));
  EXPECT_EQ(h.last().ring, drone::RingMode::kNavigation);
  EXPECT_EQ(h.fsm.stats().commands_parsed, 1u);
  EXPECT_EQ(h.fsm.stats().commands_executed, 1u);
  EXPECT_EQ(h.fsm.stats().timeouts, 0u);
}

TEST(DialogueStateMachine, SequenceGapResolvesExtendableMatch) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  h.begin(HumanSign::kYes, 20);
  EXPECT_EQ(h.fsm.state(), DialogueState::kCommandPending);
  // The gap passes with no second sign: [Yes] -> Approach wins.
  h.idle_until(20 + h.fsm.config().sequence_gap);
  EXPECT_EQ(h.fsm.state(), DialogueState::kConfirming);
  EXPECT_EQ(h.last().command, DroneCommandKind::kApproach);
  EXPECT_EQ(h.fsm.stats().commands_parsed, 1u);
}

TEST(DialogueStateMachine, PurePrefixTimesOutBackToAttending) {
  CommandGrammar grammar(
      {{{HumanSign::kYes, HumanSign::kNo},
        {DroneCommandKind::kLand, drone::PatternType::kLanding,
         drone::RingMode::kLanding}}});
  DialogueStateMachine fsm(0, &grammar);
  DialogueStateMachine::Actions actions;
  fsm.on_event(make_event(SignEventKind::kBegin, HumanSign::kAttentionGained, 5),
               actions);
  fsm.on_event(make_event(SignEventKind::kBegin, HumanSign::kYes, 20), actions);
  EXPECT_EQ(fsm.state(), DialogueState::kCommandPending);
  fsm.on_tick(20 + fsm.config().sequence_gap, actions);
  EXPECT_EQ(fsm.state(), DialogueState::kAttending);
  EXPECT_EQ(fsm.stats().timeouts, 1u);
  EXPECT_EQ(actions.back().pattern, drone::PatternType::kTurnNo);
}

TEST(DialogueStateMachine, DeadEndShakesNoAndKeepsAttending) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  h.begin(HumanSign::kYes, 20);
  h.begin(HumanSign::kNo, 30);  // [Yes, No] is outside the grammar
  EXPECT_EQ(h.fsm.state(), DialogueState::kAttending);
  EXPECT_EQ(h.fsm.stats().dead_ends, 1u);
  EXPECT_EQ(h.last().pattern, drone::PatternType::kTurnNo);
  // The buffer was cleared: a fresh valid sequence still works.
  h.begin(HumanSign::kNo, 50);
  h.begin(HumanSign::kNo, 60);
  EXPECT_EQ(h.fsm.state(), DialogueState::kConfirming);
  EXPECT_EQ(h.last().command, DroneCommandKind::kLeave);
}

TEST(DialogueStateMachine, ConfirmDeniedAbortsWithDangerRing) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  h.begin(HumanSign::kNo, 20);
  h.idle_until(20 + h.fsm.config().sequence_gap);  // Retreat -> Confirming
  h.begin(HumanSign::kNo, 70);                     // human denies
  EXPECT_EQ(h.fsm.state(), DialogueState::kAborting);
  EXPECT_EQ(h.fsm.outcome(), protocol::Outcome::kDenied);
  EXPECT_EQ(h.fsm.outcome_record(),
            (protocol::OutcomeRecord{protocol::Outcome::kDenied, 7, 70}));
  EXPECT_EQ(h.fsm.stats().confirm_rejections, 1u);
  EXPECT_EQ(h.last().ring, drone::RingMode::kDanger);
  EXPECT_EQ(h.last().pattern, drone::PatternType::kTurnNo);
  h.idle_until(70 + h.fsm.config().abort_ticks);
  EXPECT_EQ(h.fsm.state(), DialogueState::kIdle);
  EXPECT_EQ(h.last().event, std::string("abort:done"));
}

TEST(DialogueStateMachine, ConfirmTimeoutAborts) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  h.begin(HumanSign::kYes, 20);
  h.idle_until(20 + h.fsm.config().sequence_gap);
  EXPECT_EQ(h.fsm.state(), DialogueState::kConfirming);
  const std::uint64_t entered = 20 + h.fsm.config().sequence_gap;
  h.idle_until(entered + h.fsm.config().confirm_timeout);
  EXPECT_EQ(h.fsm.state(), DialogueState::kAborting);
  EXPECT_EQ(h.fsm.outcome(), protocol::Outcome::kNoAnswer);
  EXPECT_EQ(h.fsm.stats().timeouts, 1u);
}

TEST(DialogueStateMachine, AttendingTimeoutReturnsToIdle) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  // A refresh extends the window...
  h.fsm.on_event(
      make_event(SignEventKind::kBegin, HumanSign::kAttentionGained, 100),
      h.actions);
  h.idle_until(100 + h.fsm.config().attending_timeout - 1);
  EXPECT_EQ(h.fsm.state(), DialogueState::kAttending);
  // ...but silence eventually times the session out.
  h.idle_until(100 + h.fsm.config().attending_timeout);
  EXPECT_EQ(h.fsm.state(), DialogueState::kIdle);
  EXPECT_EQ(h.fsm.outcome(), protocol::Outcome::kNoAnswer);
  EXPECT_EQ(h.fsm.stats().timeouts, 1u);
}

TEST(DialogueStateMachine, MidExecutionCancelAborts) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  h.begin(HumanSign::kYes, 20);
  h.begin(HumanSign::kYes, 40);
  h.begin(HumanSign::kYes, 60);  // confirmed -> Executing
  EXPECT_EQ(h.fsm.state(), DialogueState::kExecuting);
  h.begin(HumanSign::kNo, 70);  // human withdraws consent mid-pattern
  EXPECT_EQ(h.fsm.state(), DialogueState::kAborting);
  EXPECT_EQ(h.fsm.outcome(), protocol::Outcome::kAborted);
  EXPECT_EQ(h.fsm.stats().aborts, 1u);
  EXPECT_EQ(h.fsm.stats().commands_executed, 0u);
}

TEST(DialogueStateMachine, ExternalAbortFromAnyActiveState) {
  FsmHarness h;
  h.fsm.abort(3, h.actions);  // Idle: a no-op
  EXPECT_EQ(h.fsm.state(), DialogueState::kIdle);
  EXPECT_TRUE(h.actions.empty());
  h.begin(HumanSign::kAttentionGained, 5);
  h.fsm.abort(10, h.actions);
  EXPECT_EQ(h.fsm.state(), DialogueState::kAborting);
  EXPECT_EQ(h.fsm.outcome(), protocol::Outcome::kAborted);
  EXPECT_EQ(h.fsm.outcome_record(),
            (protocol::OutcomeRecord{protocol::Outcome::kAborted, 7, 10}));
  EXPECT_EQ(h.fsm.stats().aborts, 1u);
  EXPECT_EQ(h.last().ring, drone::RingMode::kDanger);
  h.fsm.abort(11, h.actions);  // already aborting: a no-op
  EXPECT_EQ(h.fsm.stats().aborts, 1u);
}

TEST(DialogueStateMachine, EndEventsOnlyLog) {
  FsmHarness h;
  h.begin(HumanSign::kAttentionGained, 5);
  const std::size_t actions_before = h.actions.size();
  h.fsm.on_event(make_event(SignEventKind::kEnd, HumanSign::kAttentionGained, 18),
                 h.actions);
  EXPECT_EQ(h.actions.size(), actions_before);
  EXPECT_EQ(h.fsm.state(), DialogueState::kAttending);
  EXPECT_EQ(h.fsm.stats().events_consumed, 2u);
}

TEST(DialogueStateMachine, ValidatesGrammarPointer) {
  EXPECT_THROW(DialogueStateMachine(0, nullptr), std::invalid_argument);
}

// ------------------------------------------------------------- scenario ---

TEST(Scenario, CommandSequencesMatchTheStandardGrammar) {
  const CommandGrammar grammar = CommandGrammar::standard();
  EXPECT_EQ(command_sequence(grammar, DroneCommandKind::kApproach),
            (std::vector<HumanSign>{HumanSign::kYes}));
  EXPECT_EQ(command_sequence(grammar, DroneCommandKind::kLand),
            (std::vector<HumanSign>{HumanSign::kYes, HumanSign::kYes}));
  EXPECT_THROW(command_sequence(grammar, DroneCommandKind::kNone),
               std::invalid_argument);
}

TEST(Scenario, ScheduleCarriesExactCleanSupportAndExtraNoise) {
  const CommandGrammar grammar = CommandGrammar::standard();
  const ScenarioOptions options;
  const signs::SignSchedule schedule = make_dialogue_schedule(
      grammar, DroneCommandKind::kLand, /*confirm=*/true, options);
  // Clean ticks per sign are exactly the holds; noise ticks ride on top.
  std::map<HumanSign, std::uint64_t> clean;
  std::uint64_t noise = 0;
  for (const signs::SignScheduleStep& step : schedule) {
    if (step.azimuth_offset_deg != 0.0) {
      ++noise;  // oblique reject tick
      EXPECT_EQ(step.ticks, 1u);
    } else if (step.ticks == 1 && step.sign != HumanSign::kNeutral) {
      ++noise;  // one-frame flicker
    } else {
      clean[step.sign] += step.ticks;
    }
  }
  // Attention + Yes + Yes + confirm Yes; flickers are the only No frames.
  EXPECT_EQ(clean[HumanSign::kAttentionGained], options.hold_ticks);
  EXPECT_EQ(clean[HumanSign::kYes], 3 * options.hold_ticks);
  EXPECT_GT(noise, 0u);
  const ScenarioExpectation expectation =
      make_expectation(grammar, DroneCommandKind::kLand, true);
  EXPECT_EQ(expectation.sign_events, 4u);  // attention + 2 signs + confirm
  EXPECT_EQ(expectation.outcome, protocol::Outcome::kGranted);
}

TEST(Scenario, CohortCyclesCommandsAndMarksDenials) {
  const CommandGrammar grammar = CommandGrammar::standard();
  const ScenarioCohort cohort = make_cohort(7, grammar);
  ASSERT_EQ(cohort.scripts.size(), 7u);
  ASSERT_EQ(cohort.expectations.size(), 7u);
  EXPECT_EQ(cohort.expectations[0].command, DroneCommandKind::kApproach);
  EXPECT_EQ(cohort.expectations[1].command, DroneCommandKind::kLand);
  EXPECT_EQ(cohort.expectations[2].command, DroneCommandKind::kRetreat);
  EXPECT_EQ(cohort.expectations[3].command, DroneCommandKind::kLeave);
  for (std::size_t s = 0; s < 6; ++s) EXPECT_TRUE(cohort.expectations[s].confirmed);
  EXPECT_FALSE(cohort.expectations[6].confirmed);  // stream 6: denied Retreat
  EXPECT_EQ(cohort.expectations[6].outcome, protocol::Outcome::kDenied);
}

// ----------------------------------------------------------- end to end ---

/// Shared recogniser + scripted cohort (database construction renders
/// frames, so build once for the whole suite).
class InteractionEndToEnd : public ::testing::Test {
 protected:
  static constexpr std::size_t kStreams = 7;  // includes the denied stream

  static void SetUpTestSuite() {
    sequential_ = new recognition::SaxSignRecognizer(
        recognition::RecognizerConfig{}, recognition::DatabaseBuildOptions{});
    grammar_ = new CommandGrammar(CommandGrammar::standard());
    cohort_ = new ScenarioCohort(make_cohort(kStreams, *grammar_));
    const signs::MultiDroneFeed feed(
        make_feed_config(kStreams, cohort_->scripts));
    scripts_ = new std::vector<std::vector<imaging::GrayImage>>(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      (*scripts_)[s] = feed.prerender(
          s, static_cast<std::size_t>(feed.script_period(s)));
    }
  }
  static void TearDownTestSuite() {
    delete sequential_;
    delete grammar_;
    delete cohort_;
    delete scripts_;
    sequential_ = nullptr;
    grammar_ = nullptr;
    cohort_ = nullptr;
    scripts_ = nullptr;
  }

  /// The canonical wiring: the fusion confidence scale always derives from
  /// the recogniser that produces the results.
  static InteractionServiceConfig wired_config() {
    InteractionServiceConfig config;
    config.fusion = FusionPolicy::matching(sequential_->config());
    return config;
  }

  /// Streams the whole cohort through perception + interaction at the
  /// given shard count; returns per-stream transcripts.
  static std::vector<protocol::Transcript> run_cohort(
      std::size_t shards, std::vector<InteractionStreamStats>* stats_out) {
    InteractionService interaction(wired_config());
    recognition::PerceptionServiceConfig perception_config;
    perception_config.shards = shards;
    perception_config.queue_capacity = 64;
    recognition::PerceptionService perception(
        sequential_->config(), sequential_->database_ptr(),
        interaction.callback(), perception_config);
    interaction.watch(&perception);

    std::vector<std::thread> producers;
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      producers.emplace_back([&, s] {
        for (const imaging::GrayImage& frame : (*scripts_)[s]) {
          perception.submit(s, frame);
        }
      });
    }
    for (std::thread& t : producers) t.join();
    perception.drain();
    interaction.drain();

    std::vector<protocol::Transcript> transcripts;
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      transcripts.push_back(interaction.transcript(s));
      if (stats_out != nullptr) {
        stats_out->push_back(interaction.stream_stats(s));
      }
    }
    if (stats_out != nullptr) {
      // Every stream's ack ring must be back to navigation (session done)
      // and a communicative pattern must have been generated.
      for (std::uint32_t s = 0; s < kStreams; ++s) {
        EXPECT_EQ(interaction.ring_mode(s), drone::RingMode::kNavigation)
            << "stream " << s;
        EXPECT_FALSE(interaction.last_pattern(s).waypoints.empty())
            << "stream " << s;
      }
    }
    return transcripts;
  }

  static recognition::SaxSignRecognizer* sequential_;
  static CommandGrammar* grammar_;
  static ScenarioCohort* cohort_;
  static std::vector<std::vector<imaging::GrayImage>>* scripts_;
};

recognition::SaxSignRecognizer* InteractionEndToEnd::sequential_ = nullptr;
CommandGrammar* InteractionEndToEnd::grammar_ = nullptr;
ScenarioCohort* InteractionEndToEnd::cohort_ = nullptr;
std::vector<std::vector<imaging::GrayImage>>* InteractionEndToEnd::scripts_ =
    nullptr;

TEST_F(InteractionEndToEnd, NoisyCohortRunsEveryDialogueWithZeroSpuriousEvents) {
  std::vector<InteractionStreamStats> stats;
  const std::vector<protocol::Transcript> transcripts = run_cohort(2, &stats);
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    const ScenarioExpectation& want = cohort_->expectations[s];
    const InteractionStreamStats& got = stats[s];
    EXPECT_EQ(got.frames, (*scripts_)[s].size()) << "stream " << s;
    // THE acceptance property: the noise model adds zero onset/end pairs.
    EXPECT_EQ(got.events_begun, want.sign_events) << "stream " << s;
    EXPECT_EQ(got.events_ended, want.sign_events) << "stream " << s;
    EXPECT_EQ(got.state, DialogueState::kIdle) << "stream " << s;
    EXPECT_EQ(got.outcome, want.outcome) << "stream " << s;
    EXPECT_EQ(got.dialogue.commands_parsed, 1u) << "stream " << s;
    EXPECT_EQ(got.dialogue.dead_ends, 0u) << "stream " << s;
    EXPECT_EQ(got.dialogue.timeouts, 0u) << "stream " << s;
    if (want.confirmed) {
      EXPECT_EQ(got.dialogue.commands_executed, 1u) << "stream " << s;
      EXPECT_EQ(got.dialogue.confirm_rejections, 0u) << "stream " << s;
    } else {
      EXPECT_EQ(got.dialogue.commands_executed, 0u) << "stream " << s;
      EXPECT_EQ(got.dialogue.confirm_rejections, 1u) << "stream " << s;
    }
    EXPECT_GE(got.acks, 5u) << "stream " << s;
    EXPECT_FALSE(transcripts[s].empty());
  }
}

TEST_F(InteractionEndToEnd, TranscriptsAreIdenticalAcrossShardCounts) {
  // Dialogue is a pure function of each stream's frame sequence; shard
  // count and worker interleaving must be invisible.
  const std::vector<protocol::Transcript> one = run_cohort(1, nullptr);
  const std::vector<protocol::Transcript> three = run_cohort(3, nullptr);
  ASSERT_EQ(one.size(), three.size());
  for (std::size_t s = 0; s < one.size(); ++s) {
    ASSERT_EQ(one[s].size(), three[s].size()) << "stream " << s;
    for (std::size_t i = 0; i < one[s].size(); ++i) {
      EXPECT_DOUBLE_EQ(one[s][i].t, three[s][i].t) << "stream " << s;
      EXPECT_EQ(one[s][i].actor, three[s][i].actor) << "stream " << s;
      EXPECT_EQ(one[s][i].event, three[s][i].event) << "stream " << s;
    }
  }
}

TEST_F(InteractionEndToEnd, LedRingShowsEachDialoguePhase) {
  // Stream 0 of a 1-stream cohort runs the Land dialogue step by step; at
  // every checkpoint both services drain, so the ring state is exact.
  const CommandGrammar grammar = CommandGrammar::standard();
  const ScenarioOptions options;  // lead 6, hold 12(+2 noise), intra 6,
                                  // resolve 45, tail 80, clean_run 4
  const signs::SignSchedule schedule = make_dialogue_schedule(
      grammar, DroneCommandKind::kLand, /*confirm=*/true, options);
  const signs::MultiDroneFeed feed(make_feed_config(1, {schedule}));
  const auto frames =
      feed.prerender(0, static_cast<std::size_t>(feed.script_period(0)));
  ASSERT_EQ(frames.size(), 199u);  // fixed by the options above

  InteractionService interaction(wired_config());
  recognition::PerceptionService perception(
      sequential_->config(), sequential_->database_ptr(),
      interaction.callback(), {/*shards=*/1, /*queue=*/32,
                               util::OverflowPolicy::kBlock});
  std::size_t next = 0;
  const auto submit_through = [&](std::size_t last_inclusive) {
    for (; next <= last_inclusive; ++next) {
      perception.submit(0, frames[next]);
    }
    perception.drain();
    interaction.drain();
  };

  // Boot state: fail-safe all-red, like the hardware.
  EXPECT_EQ(interaction.ring_mode(0), drone::RingMode::kDanger);
  submit_through(21);  // attention hold done
  EXPECT_EQ(interaction.dialogue_state(0), DialogueState::kAttending);
  EXPECT_EQ(interaction.ring_mode(0), drone::RingMode::kAllGreen);
  EXPECT_EQ(interaction.last_pattern(0).type, drone::PatternType::kNodYes);
  submit_through(50);  // both Yes holds seen -> command parsed, echoed
  EXPECT_EQ(interaction.dialogue_state(0), DialogueState::kConfirming);
  EXPECT_EQ(interaction.ring_mode(0), drone::RingMode::kLanding);  // preview
  submit_through(110);  // confirmation Yes fused -> executing
  EXPECT_EQ(interaction.dialogue_state(0), DialogueState::kExecuting);
  EXPECT_EQ(interaction.ring_mode(0), drone::RingMode::kLanding);
  EXPECT_EQ(interaction.last_pattern(0).type, drone::PatternType::kLanding);
  submit_through(frames.size() - 1);  // pattern completes, session closes
  EXPECT_EQ(interaction.dialogue_state(0), DialogueState::kIdle);
  EXPECT_EQ(interaction.ring_mode(0), drone::RingMode::kNavigation);
  EXPECT_EQ(interaction.outcome(0), protocol::Outcome::kGranted);
}

TEST(InteractionServiceLimits, AdmissionRejectsTraceAliasingIdentity) {
  // make_trace_id keeps 16 bits of stream + 1 and 48 bits of sequence:
  // past either limit two observations would share one trace id. Every
  // admission path (inject_observation, abort_stream, request_abort)
  // enforces the limits before anything is admitted.
  ASSERT_EQ(telemetry::kMaxTraceStreamId, 65534u);
  InteractionService service;
  std::atomic<int> aborts{0};
  service.set_dialogue_listener(
      [&aborts](const InteractionService::DialogueStep& step) {
        if (step.sample.abort) aborts.fetch_add(1);
      });
  service.inject_observation(65534, telemetry::kMaxTraceSequence,
                             HumanSign::kNeutral, 0.0);
  service.abort_stream(65534);
  service.request_abort(65534);
  for (const std::uint32_t bad : {65535u, 65536u, 65536u + 65534u,
                                  std::numeric_limits<std::uint32_t>::max()}) {
    EXPECT_THROW(service.inject_observation(bad, 0, HumanSign::kNeutral, 0.0),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(service.abort_stream(bad), std::invalid_argument) << bad;
    EXPECT_THROW(service.request_abort(bad), std::invalid_argument) << bad;
  }
  for (const std::uint64_t bad :
       {telemetry::kMaxTraceSequence + 1, ~std::uint64_t{0}}) {
    EXPECT_THROW(service.inject_observation(0, bad, HumanSign::kNeutral, 0.0),
                 std::invalid_argument)
        << bad;
  }
  service.drain();
  EXPECT_EQ(service.stream_stats(65534).frames, 1u);
  EXPECT_EQ(aborts.load(), 2);
  EXPECT_EQ(service.stream_stats(65535).frames, 0u);
  EXPECT_EQ(service.stream_stats(0).frames, 0u);
  service.stop();
}

TEST(InteractionServiceLimits, InputsRefusedAfterStopCloseTheirTraces) {
  // No trace may end open: every input refused after stop() gets exactly
  // one terminal admit/closed instant on its (stream, sequence) trace.
  telemetry::FlightRecorder recorder(64);
  InteractionServiceConfig config;
  config.recorder = &recorder;
  InteractionService service(config);
  service.stop();
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    service.inject_observation(7, seq, HumanSign::kYes, 0.9);
  }
  const std::vector<telemetry::TraceEvent> events = recorder.collect();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto it = std::find_if(
        events.begin(), events.end(),
        [seq](const telemetry::TraceEvent& e) { return e.sequence == seq; });
    ASSERT_NE(it, events.end()) << seq;
    EXPECT_EQ(it->trace_id, telemetry::TraceContext::of(7, seq).trace_id);
    EXPECT_EQ(it->stage, telemetry::TraceStage::kAdmit);
    EXPECT_EQ(it->outcome, telemetry::TraceOutcome::kClosed);
  }
  EXPECT_EQ(service.stream_stats(7).frames, 0u);
}

/// (sequence, abort) of every journaled Observation record, in journal order.
std::vector<std::pair<std::uint64_t, bool>> journaled_samples(
    const protocol::EventJournal& journal) {
  std::vector<protocol::wire::AnyRecord> records;
  protocol::wire::WireError error;
  EXPECT_TRUE(protocol::wire::parse_all(journal.bytes(), records, error));
  std::vector<std::pair<std::uint64_t, bool>> samples;
  for (const protocol::wire::AnyRecord& record : records) {
    if (const auto* o = std::get_if<protocol::wire::ObservationRecord>(&record)) {
      samples.emplace_back(o->sequence, o->abort != 0);
    }
  }
  return samples;
}

TEST(InteractionServiceAborts, RequestedAbortsApplyAtTheNextInputOrAtDrain) {
  InteractionService service;
  protocol::EventJournal journal;
  protocol::JournalRecorder recorder(journal);
  recorder.attach_interaction(service, nullptr);
  using Samples = std::vector<std::pair<std::uint64_t, bool>>;

  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    service.inject_observation(4, seq, HumanSign::kNeutral, 0.0);
  }
  // A request only counts the abort: nothing is processed yet.
  service.request_abort(4);
  EXPECT_EQ(journaled_samples(journal),
            (Samples{{1, false}, {2, false}, {3, false}}));
  // The stream's next frame applies it first, stamped with the last
  // processed sequence.
  service.inject_observation(4, 4, HumanSign::kNeutral, 0.0);
  EXPECT_EQ(journaled_samples(journal),
            (Samples{{1, false}, {2, false}, {3, false}, {3, true}, {4, false}}));

  // With no further frame, drain() applies them: two requests, two aborts.
  service.request_abort(4);
  service.request_abort(4);
  EXPECT_EQ(journaled_samples(journal).size(), 5u);
  service.drain();
  EXPECT_EQ(journaled_samples(journal),
            (Samples{{1, false}, {2, false}, {3, false}, {3, true}, {4, false},
                     {4, true}, {4, true}}));
  service.drain();
  EXPECT_EQ(journaled_samples(journal).size(), 7u);
  EXPECT_EQ(service.stream_stats(4).frames, 4u);
}

TEST_F(InteractionEndToEnd, AckObserverIsNeverEnteredConcurrently) {
  // Three shards run dialogue at once, but ack observer calls are
  // serialized: the observer below keeps unsynchronised state and lingers
  // in each call, so two shards entering together would be caught.
  InteractionService interaction(wired_config());
  std::atomic<bool> in_call{false};
  std::atomic<bool> overlapped{false};
  std::size_t acks = 0;
  interaction.set_ack_observer([&](const AckAction&) {
    if (in_call.exchange(true)) overlapped.store(true);
    ++acks;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    in_call.store(false);
  });
  recognition::PerceptionServiceConfig perception_config;
  perception_config.shards = 3;
  recognition::PerceptionService perception(
      sequential_->config(), sequential_->database_ptr(),
      interaction.callback(), perception_config);
  std::vector<std::thread> producers;
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&, s] {
      for (const imaging::GrayImage& frame : (*scripts_)[s]) {
        perception.submit(s, frame);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  perception.drain();
  perception.stop();
  EXPECT_FALSE(overlapped.load());
  EXPECT_GE(acks, 5 * kStreams);
}

TEST_F(InteractionEndToEnd, ExternalAbortInterruptsADialogue) {
  InteractionService interaction(wired_config());
  recognition::PerceptionService perception(
      sequential_->config(), sequential_->database_ptr(),
      interaction.callback(), {/*shards=*/1, /*queue=*/32,
                               util::OverflowPolicy::kBlock});
  // Ride the Land script into Attending, then pull the plug.
  for (std::size_t i = 0; i <= 21; ++i) perception.submit(0, (*scripts_)[1][i]);
  perception.drain();
  interaction.drain();
  ASSERT_EQ(interaction.dialogue_state(0), DialogueState::kAttending);
  interaction.abort_stream(0);
  interaction.drain();
  EXPECT_EQ(interaction.dialogue_state(0), DialogueState::kAborting);
  EXPECT_EQ(interaction.outcome(0), protocol::Outcome::kAborted);
  // outcome_record identifies the stream and the frame the abort struck at
  // (the last observation processed before it, frame 21).
  EXPECT_EQ(interaction.outcome_record(0),
            (protocol::OutcomeRecord{protocol::Outcome::kAborted, 0, 21}));
  EXPECT_EQ(interaction.outcome_record(9).outcome,
            protocol::Outcome::kPending);  // unknown stream: pending
  EXPECT_EQ(interaction.ring_mode(0), drone::RingMode::kDanger);
  EXPECT_EQ(interaction.last_pattern(0).type, drone::PatternType::kTurnNo);
}

TEST_F(InteractionEndToEnd, WatchesPerceptionGaugesForBackpressure) {
  // Park the single perception shard inside the callback, pile frames into
  // its ring, and the interaction service must see the congestion.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool parked = false;
  bool release = false;

  InteractionServiceConfig config = wired_config();
  config.congestion_depth = 3;
  InteractionService interaction(config);
  recognition::PerceptionService perception(
      sequential_->config(), sequential_->database_ptr(),
      [&](const recognition::StreamResult& r) {
        interaction.on_result(r);
        if (r.sequence == 0) {
          std::unique_lock<std::mutex> lock(gate_mutex);
          parked = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release; });
        }
      },
      {/*shards=*/1, /*queue=*/8, util::OverflowPolicy::kBlock});
  interaction.watch(&perception);
  EXPECT_FALSE(interaction.congested());

  const imaging::GrayImage& frame = (*scripts_)[0].front();
  perception.submit(0, frame);
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return parked; });
  }
  for (int i = 0; i < 4; ++i) perception.submit(0, frame);  // depth 4 >= 3
  EXPECT_TRUE(interaction.congested());
  EXPECT_EQ(perception.shard_gauge(0).depth, 4u);

  // Congestion is a signal for producers, not an admission filter: a
  // neutral observation arriving while congested is still processed.
  recognition::StreamResult rejected;
  rejected.stream_id = 9;
  rejected.sequence = 0;
  rejected.result.accepted = false;
  interaction.on_result(rejected);
  interaction.drain();
  EXPECT_EQ(interaction.stream_stats(9).frames, 1u);
  EXPECT_TRUE(interaction.congested());

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  perception.drain();
  interaction.drain();
  EXPECT_FALSE(interaction.congested());
}

}  // namespace
}  // namespace hdc::interaction
