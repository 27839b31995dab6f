#include "recognition/recognizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <thread>
#include <vector>

#include "imaging/morphology.hpp"
#include "signs/scene.hpp"
#include "telemetry/stage_names.hpp"
#include "timeseries/distance.hpp"

namespace hdc::recognition {
namespace {

/// Shared recogniser for the suite (database construction renders frames,
/// so build it once).
class RecognitionSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    recognizer_ = new SaxSignRecognizer(RecognizerConfig{}, DatabaseBuildOptions{});
  }
  static void TearDownTestSuite() {
    delete recognizer_;
    recognizer_ = nullptr;
  }
  static SaxSignRecognizer* recognizer_;
};

SaxSignRecognizer* RecognitionSuite::recognizer_ = nullptr;

TEST_F(RecognitionSuite, DatabaseHoldsAllSigns) {
  const SignDatabase& db = recognizer_->database();
  EXPECT_EQ(db.size(), signs::kAllSigns.size());
  std::set<signs::HumanSign> stored;
  for (const SignTemplate& t : db.templates()) {
    stored.insert(t.sign);
    EXPECT_EQ(t.word.text.size(), recognizer_->config().word_length);
    EXPECT_EQ(t.normalized_signature.size(), recognizer_->config().signature_samples);
    EXPECT_FALSE(t.label.empty());
  }
  EXPECT_EQ(stored.size(), signs::kAllSigns.size());
}

TEST_F(RecognitionSuite, SignWordsAreUnique) {
  // Paper §IV: "the strings retrievable from the three signs are unique."
  std::set<std::string> words;
  for (const SignTemplate& t : recognizer_->database().templates()) {
    words.insert(t.word.text);
  }
  EXPECT_EQ(words.size(), recognizer_->database().size());
}

TEST_F(RecognitionSuite, CanonicalFramesMatchExactly) {
  for (const signs::HumanSign sign : signs::kAllSigns) {
    const auto frame = signs::render_sign(
        sign, DatabaseBuildOptions{}.canonical_view, signs::RenderOptions{});
    const RecognitionResult result = recognizer_->recognize(frame);
    EXPECT_EQ(result.sign, sign) << to_string(sign);
    EXPECT_NEAR(result.distance, 0.0, 1e-9) << to_string(sign);
    if (sign != signs::HumanSign::kNeutral) {
      EXPECT_TRUE(result.accepted) << to_string(sign);
    } else {
      // Neutral is recognised but not a communicative sign.
      EXPECT_FALSE(result.accepted);
      EXPECT_EQ(result.reject_reason, RejectReason::kNone);
    }
  }
}

/// Paper claim: recognition works across the 2-5 m altitude band at 3 m
/// horizontal distance and 0-deg azimuth.
class AltitudeBand : public ::testing::TestWithParam<double> {};

TEST_P(AltitudeBand, AllSignsClassifyCorrectly) {
  static SaxSignRecognizer recognizer{RecognizerConfig{}, DatabaseBuildOptions{}};
  const double altitude = GetParam();
  for (const signs::HumanSign sign : signs::kCommunicativeSigns) {
    const auto frame =
        signs::render_sign(sign, {altitude, 3.0, 0.0}, signs::RenderOptions{});
    const RecognitionResult result = recognizer.recognize(frame);
    EXPECT_EQ(result.sign, sign)
        << to_string(sign) << " at altitude " << altitude;
    EXPECT_LE(result.distance, recognizer.config().accept_distance)
        << to_string(sign) << " at altitude " << altitude;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperBand, AltitudeBand,
                         ::testing::Values(2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0));

TEST_F(RecognitionSuite, DeadAngleRejectsHighAzimuth) {
  // Past the dead-angle knee the distance must exceed the acceptance
  // threshold (the paper's "erratic" zone).
  int rejected = 0;
  for (const double azimuth : {70.0, 75.0, 80.0, 85.0}) {
    const auto frame =
        signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, azimuth}, {});
    const RecognitionResult result = recognizer_->recognize(frame);
    if (!result.accepted) ++rejected;
  }
  EXPECT_GE(rejected, 3);  // at least 3 of 4 oblique views rejected
}

TEST_F(RecognitionSuite, SelfDistanceGrowsWithAzimuth) {
  // Monotone trend (coarse): distance at 60 deg exceeds distance at 10 deg.
  const auto distance_at = [&](double azimuth) {
    const auto frame =
        signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, azimuth}, {});
    return recognizer_->recognize(frame).distance;
  };
  EXPECT_LT(distance_at(10.0), distance_at(60.0));
  EXPECT_LT(distance_at(20.0), distance_at(75.0));
}

TEST_F(RecognitionSuite, EmptyFrameRejectsWithNoSilhouette) {
  const imaging::GrayImage empty(480, 360, 200);
  const RecognitionResult result = recognizer_->recognize(empty);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kNoSilhouette);
}

TEST_F(RecognitionSuite, TinyBlobRejected) {
  imaging::GrayImage frame(480, 360, 200);
  // A blob below min_silhouette_area.
  for (int y = 100; y < 105; ++y) {
    for (int x = 100; x < 105; ++x) frame(x, y) = 20;
  }
  const RecognitionResult result = recognizer_->recognize(frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kNoSilhouette);
}

TEST_F(RecognitionSuite, TraceExposesIntermediates) {
  const auto frame = signs::render_sign(signs::HumanSign::kYes, {3.5, 3.0, 0.0}, {});
  RecognitionTrace trace;
  const RecognitionResult result = recognizer_->recognize(frame, &trace);
  EXPECT_TRUE(result.accepted);
  EXPECT_GT(imaging::foreground_area(trace.silhouette), 100u);
  EXPECT_GT(trace.contour.size(), 50u);
  EXPECT_EQ(trace.raw_signature.size(), recognizer_->config().signature_samples);
  EXPECT_EQ(trace.normalized_signature.size(), trace.raw_signature.size());
}

/// Runs one frame through a scratch armed from a fresh registry and returns
/// each stage histogram's sample count, in pipeline order.
std::vector<std::uint64_t> stage_counts(const SaxSignRecognizer& recognizer,
                                        const imaging::GrayImage& frame,
                                        RecognitionResult& result) {
  telemetry::MetricsRegistry registry;
  RecognizerScratch scratch;
  scratch.metrics = telemetry::RecognitionStageMetrics::from(registry);
  recognize_frame_into(recognizer.config(), recognizer.database(), frame, scratch,
                       result);
  const telemetry::MetricsSnapshot snapshot = registry.snapshot();
  std::vector<std::uint64_t> counts;
  for (const std::string_view name : telemetry::kRecognitionStages) {
    const telemetry::HistogramSnapshot* histogram = snapshot.find_histogram(name);
    EXPECT_NE(histogram, nullptr) << name;
    counts.push_back(histogram == nullptr ? 0 : histogram->count);
  }
  return counts;
}

TEST_F(RecognitionSuite, AcceptedFrameRecordsEveryStageOnce) {
  RecognitionResult result;
  const auto counts = stage_counts(
      *recognizer_, signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, 0.0}, {}),
      result);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(counts, std::vector<std::uint64_t>(7, 1));
}

TEST_F(RecognitionSuite, BlankFrameRecordsStagesOneToFiveOnly) {
  // No silhouette: the pipeline returns after the contour stage, so the
  // signature and match histograms stay empty.
  RecognitionResult result;
  const auto counts =
      stage_counts(*recognizer_, imaging::GrayImage(480, 360, 200), result);
  EXPECT_EQ(result.reject_reason, RejectReason::kNoSilhouette);
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 1, 1, 1, 1, 0, 0}));
}

void expect_same_payload(const RecognitionResult& actual,
                         const RecognitionResult& expected) {
  EXPECT_EQ(actual.accepted, expected.accepted);
  EXPECT_EQ(actual.sign, expected.sign);
  EXPECT_EQ(actual.reject_reason, expected.reject_reason);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.distance),
            std::bit_cast<std::uint64_t>(expected.distance));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.margin),
            std::bit_cast<std::uint64_t>(expected.margin));
  EXPECT_EQ(actual.sax_word, expected.sax_word);
}

TEST_F(RecognitionSuite, ConcurrentRecognizeOnOneRecognizerIsBitEqual) {
  // recognize() is const and keeps no state, so threads may share one
  // recogniser. The ThreadSanitizer build runs this suite too: any shared
  // mutable state on the recognize() path shows up there as a data race.
  const SaxSignRecognizer& recognizer = *recognizer_;
  const std::vector<imaging::GrayImage> frames = {
      signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, 0.0}, {}),
      signs::render_sign(signs::HumanSign::kYes, {3.0, 3.0, 40.0}, {}),
      imaging::GrayImage(480, 360, 200),
  };
  std::vector<RecognitionResult> expected;
  for (const imaging::GrayImage& frame : frames) {
    expected.push_back(recognizer.recognize(frame));
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<RecognitionResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const imaging::GrayImage& frame : frames) {
          results[t].push_back(recognizer.recognize(frame));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), kRounds * frames.size());
    for (std::size_t i = 0; i < results[t].size(); ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + ", call " + std::to_string(i));
      expect_same_payload(results[t][i], expected[i % frames.size()]);
    }
  }
}

TEST_F(RecognitionSuite, ResultCarriesSaxWord) {
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, 0.0}, {});
  const RecognitionResult result = recognizer_->recognize(frame);
  EXPECT_EQ(result.sax_word.size(), recognizer_->config().word_length);
  EXPECT_GT(result.total_ms, 0.0);
}

TEST(DatabaseQuery, RotationInvariantAndExactVerifyAgree) {
  const RecognizerConfig config;
  const SaxSignRecognizer recognizer(config, DatabaseBuildOptions{});
  const auto frame = signs::render_sign(signs::HumanSign::kYes, {3.0, 3.0, 10.0}, {});
  const auto signature = recognizer.extract_signature(frame);
  ASSERT_FALSE(signature.empty());
  const auto fast = recognizer.database().query(signature, false);
  const auto exact = recognizer.database().query(signature, true);
  ASSERT_TRUE(fast && exact);
  // Both modes agree on the classification for a clean frame. (Their
  // distances are NOT mutually bounded: word-level rotation steps are
  // coarser than sample-level ones, so neither dominates in general.)
  EXPECT_EQ(fast->sign, exact->sign);
  EXPECT_GE(fast->distance, 0.0);
  EXPECT_GE(exact->distance, 0.0);
}

TEST(DatabaseQuery, EmptyQueryReturnsNullopt) {
  const RecognizerConfig config;
  const SaxSignRecognizer recognizer(config, DatabaseBuildOptions{});
  EXPECT_FALSE(recognizer.database().query({}, true).has_value());
}

TEST(RecognizerConfigVariants, AspectNormalizationImprovesAltitudeRobustness) {
  // Ablation guard: with aspect normalisation off, cross-altitude distances
  // grow. (This is the property EXPERIMENTS.md quantifies.)
  RecognizerConfig with;
  RecognizerConfig without;
  without.aspect_normalize = false;
  DatabaseBuildOptions db;
  const SaxSignRecognizer rec_with(with, db);
  const SaxSignRecognizer rec_without(without, db);
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {2.0, 3.0, 0.0}, {});
  const double d_with = rec_with.recognize(frame).distance;
  const double d_without = rec_without.recognize(frame).distance;
  EXPECT_LT(d_with, d_without);
}

TEST(MultiReferenceDatabase, ExtraAltitudesWidenTheEnvelope) {
  // Extension beyond the paper's single canonical image: templates at 2.2
  // and 4.8 m shrink the worst-case distance across the altitude band.
  RecognizerConfig config;
  DatabaseBuildOptions single;
  DatabaseBuildOptions multi;
  multi.extra_altitudes = {2.2, 4.8};
  const SaxSignRecognizer rec_single(config, single);
  const SaxSignRecognizer rec_multi(config, multi);
  EXPECT_EQ(rec_multi.database().size(), 3 * rec_single.database().size());

  double worst_single = 0.0, worst_multi = 0.0;
  for (const signs::HumanSign sign : signs::kCommunicativeSigns) {
    for (const double alt : {2.0, 3.0, 4.0, 5.0}) {
      const auto frame = signs::render_sign(sign, {alt, 3.0, 0.0}, {});
      worst_single = std::max(worst_single, rec_single.recognize(frame).distance);
      worst_multi = std::max(worst_multi, rec_multi.recognize(frame).distance);
    }
  }
  EXPECT_LT(worst_multi, worst_single);
}

TEST(RecognizerConfigVariants, WorksAcrossSaxParameterGrid) {
  // The recogniser must stay functional over the ref-[22] tuning grid.
  for (const std::size_t word : {8u, 16u, 32u}) {
    for (const std::size_t alphabet : {4u, 9u, 15u}) {
      RecognizerConfig config;
      config.word_length = word;
      config.alphabet = alphabet;
      const SaxSignRecognizer recognizer(config, DatabaseBuildOptions{});
      const auto frame =
          signs::render_sign(signs::HumanSign::kYes, {3.5, 3.0, 0.0}, {});
      const RecognitionResult result = recognizer.recognize(frame);
      EXPECT_EQ(result.sign, signs::HumanSign::kYes)
          << "w=" << word << " a=" << alphabet;
    }
  }
}

}  // namespace
}  // namespace hdc::recognition
