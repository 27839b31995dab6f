#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>

#include "protocol/channels.hpp"
#include "protocol/drone_negotiator.hpp"
#include "protocol/human_agent.hpp"
#include "protocol/messages.hpp"
#include "protocol/negotiation.hpp"
#include "util/rng.hpp"

namespace hdc::protocol {
namespace {

// ----------------------------------------------------- DroneNegotiator ---

/// Drives the negotiator with scripted perception. Pattern execution is
/// simulated with fixed durations.
struct NegotiatorHarness {
  DroneNegotiator negotiator;
  double pattern_left{0.0};
  std::optional<drone::PatternType> active;

  explicit NegotiatorHarness(NegotiationConfig config = {}) : negotiator(config) {
    negotiator.begin();
  }

  NegotiatorCommand tick(double dt, std::optional<signs::HumanSign> sign) {
    if (active.has_value()) {
      pattern_left -= dt;
      if (pattern_left <= 0.0) active.reset();
    }
    const NegotiatorCommand cmd = negotiator.step(dt, sign, active.has_value());
    if (cmd.kind == NegotiatorCommand::Kind::kFlyPattern) {
      active = cmd.pattern;
      pattern_left = cmd.pattern == drone::PatternType::kPoke ? 3.0 : 8.0;
    }
    return cmd;
  }

  /// Runs for `seconds` showing `sign` throughout.
  void run(double seconds, std::optional<signs::HumanSign> sign) {
    for (double t = 0.0; t < seconds && !negotiator.finished(); t += 0.1) {
      tick(0.1, sign);
    }
  }
};

TEST(Negotiator, FirstCommandIsPoke) {
  NegotiatorHarness h;
  const NegotiatorCommand cmd = h.tick(0.1, std::nullopt);
  EXPECT_EQ(cmd.kind, NegotiatorCommand::Kind::kFlyPattern);
  EXPECT_EQ(cmd.pattern, drone::PatternType::kPoke);
  EXPECT_EQ(h.negotiator.state(), NegotiationState::kPoking);
}

TEST(Negotiator, HappyPathGranted) {
  NegotiatorHarness h;
  // Poke flies; human shows attention, then the request flies; human says
  // Yes.
  h.run(5.0, std::nullopt);  // poke finishes
  EXPECT_EQ(h.negotiator.state(), NegotiationState::kAwaitAttention);
  h.run(2.0, signs::HumanSign::kAttentionGained);
  EXPECT_EQ(h.negotiator.state(), NegotiationState::kRequesting);
  h.run(10.0, std::nullopt);  // rectangle finishes
  EXPECT_EQ(h.negotiator.state(), NegotiationState::kAwaitAnswer);
  h.run(3.0, signs::HumanSign::kYes);
  EXPECT_TRUE(h.negotiator.finished());
  EXPECT_EQ(h.negotiator.outcome(), Outcome::kGranted);
}

TEST(Negotiator, DenialPath) {
  NegotiatorHarness h;
  h.run(5.0, std::nullopt);
  h.run(2.0, signs::HumanSign::kAttentionGained);
  h.run(10.0, std::nullopt);
  h.run(3.0, signs::HumanSign::kNo);
  EXPECT_EQ(h.negotiator.outcome(), Outcome::kDenied);
}

TEST(Negotiator, AnswerDuringPatternIsLatched) {
  // The human answers while the rectangle is still flying; the latch must
  // capture it (the world glue exposed this bug originally).
  NegotiatorHarness h;
  h.run(5.0, std::nullopt);
  h.run(2.0, signs::HumanSign::kAttentionGained);
  EXPECT_EQ(h.negotiator.state(), NegotiationState::kRequesting);
  // Show Yes for 2 s while the pattern is still running, then lower it.
  h.run(2.0, signs::HumanSign::kYes);
  ASSERT_FALSE(h.negotiator.finished());
  h.run(10.0, std::nullopt);  // pattern ends, sign long gone
  EXPECT_EQ(h.negotiator.outcome(), Outcome::kGranted);
}

TEST(Negotiator, NoAttentionAfterRetries) {
  NegotiationConfig config;
  config.poke_retries = 2;
  config.attention_timeout_s = 2.0;
  NegotiatorHarness h(config);
  h.run(60.0, std::nullopt);
  EXPECT_TRUE(h.negotiator.finished());
  EXPECT_EQ(h.negotiator.outcome(), Outcome::kNoAttention);
  // Exactly 2 pokes in the transcript.
  int pokes = 0;
  for (const auto& event : h.negotiator.transcript()) {
    if (event.event == "pattern:Poke") ++pokes;
  }
  EXPECT_EQ(pokes, 2);
}

TEST(Negotiator, NoAnswerAfterRetries) {
  NegotiationConfig config;
  config.request_retries = 2;
  config.answer_timeout_s = 3.0;
  NegotiatorHarness h(config);
  h.run(5.0, std::nullopt);
  h.run(2.0, signs::HumanSign::kAttentionGained);
  // Never answer.
  h.run(120.0, std::nullopt);
  EXPECT_EQ(h.negotiator.outcome(), Outcome::kNoAnswer);
  int requests = 0;
  for (const auto& event : h.negotiator.transcript()) {
    if (event.event == "pattern:RectangleRequest") ++requests;
  }
  EXPECT_EQ(requests, 2);
}

TEST(Negotiator, DebounceRejectsFlicker) {
  NegotiationConfig config;
  config.answer_confirm_s = 1.0;
  config.sign_gap_tolerance_s = 0.2;
  config.attention_timeout_s = 60.0;  // keep the FSM in one await window
  NegotiatorHarness h(config);
  h.run(5.0, std::nullopt);
  ASSERT_EQ(h.negotiator.state(), NegotiationState::kAwaitAttention);
  // Flicker AttentionGained in 0.3 s bursts separated by gaps longer than
  // the tolerance: the hold keeps resetting, so attention never confirms.
  for (int i = 0; i < 20; ++i) {
    h.run(0.3, signs::HumanSign::kAttentionGained);
    h.run(0.5, std::nullopt);  // gap larger than tolerance resets the hold
  }
  EXPECT_EQ(h.negotiator.state(), NegotiationState::kAwaitAttention);
}

TEST(Negotiator, DebounceBridgesShortGaps) {
  NegotiationConfig config;
  config.answer_confirm_s = 1.0;
  config.sign_gap_tolerance_s = 0.5;
  NegotiatorHarness h(config);
  h.run(5.0, std::nullopt);
  // 0.3 s detections separated by 0.2 s gaps: accumulates past 1 s.
  for (int i = 0; i < 5 && !h.negotiator.finished() &&
                  h.negotiator.state() == NegotiationState::kAwaitAttention;
       ++i) {
    h.run(0.3, signs::HumanSign::kAttentionGained);
    h.run(0.2, std::nullopt);
  }
  EXPECT_EQ(h.negotiator.state(), NegotiationState::kRequesting);
}

TEST(Negotiator, AbortFinishesImmediately) {
  NegotiatorHarness h;
  h.tick(0.1, std::nullopt);
  h.negotiator.abort();
  EXPECT_TRUE(h.negotiator.finished());
  EXPECT_EQ(h.negotiator.outcome(), Outcome::kAborted);
}

TEST(Negotiator, TranscriptIsChronological) {
  NegotiatorHarness h;
  h.run(5.0, std::nullopt);
  h.run(2.0, signs::HumanSign::kAttentionGained);
  h.run(10.0, std::nullopt);
  h.run(3.0, signs::HumanSign::kYes);
  const Transcript& transcript = h.negotiator.transcript();
  ASSERT_GT(transcript.size(), 4u);
  for (std::size_t i = 1; i < transcript.size(); ++i) {
    EXPECT_LE(transcript[i - 1].t, transcript[i].t);
  }
}

// ------------------------------------------------------ HumanResponder ---

TEST(Human, RoleParamsOrdering) {
  const HumanParams sup = role_params(HumanRole::kSupervisor);
  const HumanParams worker = role_params(HumanRole::kWorker);
  const HumanParams visitor = role_params(HumanRole::kVisitor);
  EXPECT_GT(sup.notice_probability, worker.notice_probability);
  EXPECT_GT(worker.notice_probability, visitor.notice_probability);
  EXPECT_LT(sup.reaction_mean_s, visitor.reaction_mean_s);
  EXPECT_LT(sup.wrong_sign_probability, visitor.wrong_sign_probability);
}

TEST(Human, RespondsToPokeWithAttention) {
  HumanParams params = role_params(HumanRole::kSupervisor);
  params.notice_probability = 1.0;
  params.reaction_mean_s = 0.5;
  params.reaction_stddev_s = 0.0;
  HumanResponder human(HumanRole::kSupervisor, params, 42);
  // Perceive the poke for a while.
  signs::HumanSign sign = signs::HumanSign::kNeutral;
  for (int i = 0; i < 40; ++i) {
    sign = human.step(0.1, drone::PatternType::kPoke);
  }
  EXPECT_TRUE(human.attentive());
  EXPECT_EQ(sign, signs::HumanSign::kAttentionGained);
}

TEST(Human, AnswersRequestAccordingToDecision) {
  HumanParams params = role_params(HumanRole::kSupervisor);
  params.notice_probability = 1.0;
  params.grant_probability = 1.0;  // always yes
  params.wrong_sign_probability = 0.0;
  params.reaction_mean_s = 0.3;
  params.reaction_stddev_s = 0.0;
  HumanResponder human(HumanRole::kSupervisor, params, 7);
  for (int i = 0; i < 30; ++i) (void)human.step(0.1, drone::PatternType::kPoke);
  ASSERT_TRUE(human.attentive());
  EXPECT_TRUE(human.will_grant());
  signs::HumanSign sign = signs::HumanSign::kNeutral;
  for (int i = 0; i < 60; ++i) {
    sign = human.step(0.1, drone::PatternType::kRectangleRequest);
    if (sign == signs::HumanSign::kYes) break;
  }
  EXPECT_EQ(sign, signs::HumanSign::kYes);
}

TEST(Human, SignExpiresAfterHoldTime) {
  HumanParams params = role_params(HumanRole::kSupervisor);
  params.notice_probability = 1.0;
  params.reaction_mean_s = 0.2;
  params.reaction_stddev_s = 0.0;
  params.sign_hold_s = 1.0;
  HumanResponder human(HumanRole::kSupervisor, params, 21);
  for (int i = 0; i < 20; ++i) (void)human.step(0.1, drone::PatternType::kPoke);
  EXPECT_EQ(human.displayed_sign(), signs::HumanSign::kAttentionGained);
  // Let the hold expire with no further stimulus.
  for (int i = 0; i < 20; ++i) (void)human.step(0.1, std::nullopt);
  EXPECT_EQ(human.displayed_sign(), signs::HumanSign::kNeutral);
}

TEST(Human, ReAcknowledgesRepeatPoke) {
  HumanParams params = role_params(HumanRole::kSupervisor);
  params.notice_probability = 1.0;
  params.reaction_mean_s = 0.2;
  params.reaction_stddev_s = 0.0;
  params.sign_hold_s = 0.5;
  HumanResponder human(HumanRole::kSupervisor, params, 33);
  for (int i = 0; i < 15; ++i) (void)human.step(0.1, drone::PatternType::kPoke);
  for (int i = 0; i < 15; ++i) (void)human.step(0.1, std::nullopt);  // expires
  EXPECT_EQ(human.displayed_sign(), signs::HumanSign::kNeutral);
  // Second poke: the hand must come up again at some point (the display
  // cycles between hold and re-raise, so check "ever shown").
  bool re_shown = false;
  for (int i = 0; i < 15; ++i) {
    if (human.step(0.1, drone::PatternType::kPoke) ==
        signs::HumanSign::kAttentionGained) {
      re_shown = true;
    }
  }
  EXPECT_TRUE(re_shown);
}

TEST(Human, DisengagedVisitorNeverResponds) {
  HumanParams params = role_params(HumanRole::kVisitor);
  params.ignore_probability = 1.0;
  HumanResponder human(HumanRole::kVisitor, params, 55);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(human.step(0.1, drone::PatternType::kPoke), signs::HumanSign::kNeutral);
  }
  EXPECT_FALSE(human.attentive());
}

TEST(Human, ResetProducesFreshSessionDecision) {
  HumanParams params = role_params(HumanRole::kWorker);
  params.grant_probability = 0.5;
  HumanResponder human(HumanRole::kWorker, params, 77);
  // Over many resets, both decisions occur.
  bool saw_yes = false, saw_no = false;
  for (int i = 0; i < 64; ++i) {
    human.reset();
    saw_yes |= human.will_grant();
    saw_no |= !human.will_grant();
  }
  EXPECT_TRUE(saw_yes);
  EXPECT_TRUE(saw_no);
}

// --------------------------------------------------------- Channels ------

TEST(Channels, PerfectChannelsPassThrough) {
  PerfectSignChannel sign_channel;
  EXPECT_EQ(sign_channel.sense(signs::HumanSign::kYes), signs::HumanSign::kYes);
  EXPECT_FALSE(sign_channel.sense(signs::HumanSign::kNeutral).has_value());
  PerfectPatternChannel pattern_channel;
  EXPECT_EQ(pattern_channel.sense(drone::PatternType::kPoke), drone::PatternType::kPoke);
  EXPECT_FALSE(pattern_channel.sense(std::nullopt).has_value());
}

TEST(Channels, NoisySignChannelRates) {
  NoisySignChannel channel(0.3, 0.1, 99);
  int missed = 0, confused = 0, correct = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto sensed = channel.sense(signs::HumanSign::kYes);
    if (!sensed.has_value()) {
      ++missed;
    } else if (*sensed != signs::HumanSign::kYes) {
      ++confused;
    } else {
      ++correct;
    }
  }
  EXPECT_NEAR(missed / static_cast<double>(trials), 0.3, 0.02);
  // Confusion applies to non-missed frames: 0.7 * 0.1.
  EXPECT_NEAR(confused / static_cast<double>(trials), 0.07, 0.01);
  EXPECT_GT(correct, trials / 2);
}

TEST(Channels, NoisyPatternChannelConfusesNodAndShake) {
  NoisyPatternChannel channel(0.0, 1.0, 5);  // always confuse
  EXPECT_EQ(channel.sense(drone::PatternType::kNodYes), drone::PatternType::kTurnNo);
  EXPECT_EQ(channel.sense(drone::PatternType::kTurnNo), drone::PatternType::kNodYes);
  // Non-confusable patterns pass through.
  EXPECT_EQ(channel.sense(drone::PatternType::kPoke), drone::PatternType::kPoke);
}

// ------------------------------------------------------ Full sessions ----

TEST(Session, SupervisorGrantsOverPerfectChannels) {
  NegotiationConfig config;
  DroneNegotiator negotiator(config);
  HumanParams params = role_params(HumanRole::kSupervisor);
  params.notice_probability = 1.0;
  params.grant_probability = 1.0;
  params.wrong_sign_probability = 0.0;
  HumanResponder human(HumanRole::kSupervisor, params, 11);
  PerfectSignChannel sign_channel;
  PerfectPatternChannel pattern_channel;
  const SessionResult result =
      run_negotiation(negotiator, human, sign_channel, pattern_channel);
  EXPECT_EQ(result.outcome, Outcome::kGranted);
  EXPECT_GT(result.pokes, 0);
  EXPECT_GT(result.requests, 0);
  EXPECT_GT(result.duration_s, 1.0);
  EXPECT_LT(result.duration_s, 60.0);
}

TEST(Session, DecidedNoGivesDenied) {
  DroneNegotiator negotiator;
  HumanParams params = role_params(HumanRole::kWorker);
  params.notice_probability = 1.0;
  params.grant_probability = 0.0;  // always refuses
  params.wrong_sign_probability = 0.0;
  HumanResponder human(HumanRole::kWorker, params, 13);
  PerfectSignChannel sign_channel;
  PerfectPatternChannel pattern_channel;
  const SessionResult result =
      run_negotiation(negotiator, human, sign_channel, pattern_channel);
  EXPECT_EQ(result.outcome, Outcome::kDenied);
}

TEST(Session, IgnoringVisitorTimesOut) {
  DroneNegotiator negotiator;
  HumanParams params = role_params(HumanRole::kVisitor);
  params.ignore_probability = 1.0;
  HumanResponder human(HumanRole::kVisitor, params, 17);
  PerfectSignChannel sign_channel;
  PerfectPatternChannel pattern_channel;
  const SessionResult result =
      run_negotiation(negotiator, human, sign_channel, pattern_channel);
  EXPECT_EQ(result.outcome, Outcome::kNoAttention);
}

TEST(Session, NoisyChannelsStillMostlySucceed) {
  int granted_or_denied = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    DroneNegotiator negotiator;
    HumanParams params = role_params(HumanRole::kWorker);
    params.ignore_probability = 0.0;
    HumanResponder human(HumanRole::kWorker, params, 1000 + seed);
    NoisySignChannel sign_channel(0.25, 0.03, 2000 + seed);
    NoisyPatternChannel pattern_channel(0.1, 0.03, 3000 + seed);
    const SessionResult result =
        run_negotiation(negotiator, human, sign_channel, pattern_channel);
    if (result.outcome == Outcome::kGranted || result.outcome == Outcome::kDenied) {
      ++granted_or_denied;
    }
  }
  EXPECT_GE(granted_or_denied, 15);  // >= 75% definitive outcomes
}

TEST(Session, TranscriptMergesBothActors) {
  DroneNegotiator negotiator;
  HumanParams params = role_params(HumanRole::kSupervisor);
  params.notice_probability = 1.0;
  HumanResponder human(HumanRole::kSupervisor, params, 19);
  PerfectSignChannel sign_channel;
  PerfectPatternChannel pattern_channel;
  const SessionResult result =
      run_negotiation(negotiator, human, sign_channel, pattern_channel);
  bool saw_drone = false, saw_human = false;
  for (const auto& event : result.transcript) {
    saw_drone |= event.actor == "drone";
    saw_human |= event.actor == "human";
  }
  EXPECT_TRUE(saw_drone);
  EXPECT_TRUE(saw_human);
  for (std::size_t i = 1; i < result.transcript.size(); ++i) {
    EXPECT_LE(result.transcript[i - 1].t, result.transcript[i].t);
  }
}

// -------------------------------------------------- TranscriptDigest -----

/// The batch fold journals once ran over a stored Transcript at finalize:
/// FNV-1a 64 over each entry's timestamp bits, then actor and event, each
/// with a 0 terminator. Kept here as the oracle for the running digest.
std::uint64_t batch_transcript_digest(const Transcript& transcript) {
  constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t digest = kOffset;
  const auto mix_byte = [&digest](std::uint8_t byte) {
    digest ^= byte;
    digest *= kPrime;
  };
  const auto mix_string = [&mix_byte](const std::string& s) {
    for (char c : s) mix_byte(static_cast<std::uint8_t>(c));
    mix_byte(0);
  };
  for (const TranscriptEvent& event : transcript) {
    const std::uint64_t t_bits = std::bit_cast<std::uint64_t>(event.t);
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<std::uint8_t>(t_bits >> (8 * i)));
    }
    mix_string(event.actor);
    mix_string(event.event);
  }
  return digest;
}

std::string random_text(util::Rng& rng, std::int64_t max_length) {
  std::string text(static_cast<std::size_t>(rng.uniform_int(0, max_length)),
                   ' ');
  // Any non-zero byte, high bit included (a 0 byte is the terminator).
  for (char& c : text) c = static_cast<char>(rng.uniform_int(1, 255));
  return text;
}

TEST(TranscriptDigest, EmptyDigestIsTheEmptyBatchFold) {
  const TranscriptDigest digest;
  EXPECT_EQ(digest.entries(), 0u);
  EXPECT_EQ(digest.value(), batch_transcript_digest({}));
}

TEST(TranscriptDigest, RunningFoldMatchesBatchFoldAtEverySplit) {
  // Random transcripts; each entry's event is folded as event + detail,
  // split at every position (split p clamps to the event's length, so
  // split 0 is all detail and the last split is all event).
  util::Rng rng(0xD16E57ULL);
  for (int trial = 0; trial < 200; ++trial) {
    Transcript transcript(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    std::size_t longest = 0;
    for (TranscriptEvent& event : transcript) {
      // Frame sequences (whole numbers) and arbitrary doubles.
      event.t = trial % 4 == 0
                    ? static_cast<double>(rng.uniform_int(0, 1 << 20))
                    : rng.uniform(-1e9, 1e9);
      event.actor = random_text(rng, 8);
      event.event = random_text(rng, 24);
      longest = std::max(longest, event.event.size());
    }
    const std::uint64_t want = batch_transcript_digest(transcript);
    for (std::size_t split = 0; split <= longest; ++split) {
      TranscriptDigest digest;
      for (const TranscriptEvent& event : transcript) {
        const std::string_view text = event.event;
        const std::size_t at = std::min(split, text.size());
        digest.add(event.t, event.actor, text.substr(0, at), text.substr(at));
      }
      ASSERT_EQ(digest.entries(), transcript.size()) << trial;
      ASSERT_EQ(digest.value(), want)
          << "trial " << trial << " split " << split;
    }
  }
}

TEST(TranscriptDigest, TerminatorsSeparateActorFromEvent) {
  // Moving a byte across the actor/event boundary changes the digest.
  TranscriptDigest a;
  TranscriptDigest b;
  a.add(1.0, "drone", "x:y");
  b.add(1.0, "dronex", ":y");
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.entries(), b.entries());
}

}  // namespace
}  // namespace hdc::protocol
