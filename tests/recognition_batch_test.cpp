// Frame-stream recognition through the one canonical pipeline
// (recognize_frame_into) with one reused RecognizerScratch: equivalence with
// SaxSignRecognizer (bit-identical payloads), scratch reuse across
// heterogeneous frames, determinism over a shuffled 64-frame stream (also
// through a 4-shard PerceptionService), every RejectReason branch, the
// shared-database handle, survival of an invalid frame, and a warm scratch
// that makes no heap allocation.
#include "recognition/recognizer.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "recognition/perception_service.hpp"
#include "signs/scene.hpp"
#include "util/rng.hpp"

namespace {
// operator new calls on this thread while armed (see the replacement below).
thread_local bool counting_allocations = false;
thread_local std::size_t allocation_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (counting_allocations) ++allocation_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with a new
// expression at call sites and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hdc::recognition {
namespace {

/// Serialises the deterministic payload of a result (everything except the
/// wall-clock total_ms) to bytes, with doubles copied bit-exactly.
void append_payload(const RecognitionResult& result, std::string& out) {
  out.push_back(result.accepted ? 1 : 0);
  out.push_back(static_cast<char>(result.sign));
  out.push_back(static_cast<char>(result.reject_reason));
  char bits[sizeof(double)];
  std::memcpy(bits, &result.distance, sizeof(double));
  out.append(bits, sizeof(double));
  std::memcpy(bits, &result.margin, sizeof(double));
  out.append(bits, sizeof(double));
  out.append(result.sax_word);
  out.push_back('|');
}

std::string payload_bytes(const std::vector<RecognitionResult>& results) {
  std::string bytes;
  for (const RecognitionResult& r : results) append_payload(r, bytes);
  return bytes;
}

/// Shared default-config recogniser + database (database construction
/// renders frames, so build once for the whole suite).
class FrameStreamSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sequential_ = new SaxSignRecognizer(RecognizerConfig{}, DatabaseBuildOptions{});
  }
  static void TearDownTestSuite() {
    delete sequential_;
    sequential_ = nullptr;
  }

  /// A mixed frame set: every sign across the altitude band, oblique views
  /// that reject, plus degenerate frames (blank, tiny blob).
  static std::vector<imaging::GrayImage> make_frames() {
    std::vector<imaging::GrayImage> frames;
    for (const signs::HumanSign sign : signs::kAllSigns) {
      for (const double altitude : {2.0, 3.5, 5.0}) {
        frames.push_back(signs::render_sign(sign, {altitude, 3.0, 0.0}, {}));
      }
    }
    frames.push_back(signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, 80.0}, {}));
    frames.emplace_back(480, 360, std::uint8_t{200});  // blank -> kNoSilhouette
    imaging::GrayImage tiny(480, 360, std::uint8_t{200});
    for (int y = 100; y < 105; ++y) {
      for (int x = 100; x < 105; ++x) tiny(x, y) = 20;
    }
    frames.push_back(tiny);  // below min_silhouette_area -> kNoSilhouette
    return frames;
  }

  /// Recognises `frames` in order through one caller-owned scratch.
  static std::vector<RecognitionResult> recognize_all(
      const std::vector<imaging::GrayImage>& frames, RecognizerScratch& scratch) {
    std::vector<RecognitionResult> results(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      recognize_frame_into(sequential_->config(), sequential_->database(), frames[i],
                           scratch, results[i]);
    }
    return results;
  }

  static SaxSignRecognizer* sequential_;
};

SaxSignRecognizer* FrameStreamSuite::sequential_ = nullptr;

TEST_F(FrameStreamSuite, ReusedScratchMatchesSequential) {
  const std::vector<imaging::GrayImage> frames = make_frames();
  std::vector<RecognitionResult> expected;
  expected.reserve(frames.size());
  for (const imaging::GrayImage& frame : frames) {
    expected.push_back(sequential_->recognize(frame));
  }

  RecognizerScratch scratch;
  const std::vector<RecognitionResult> reused = recognize_all(frames, scratch);
  ASSERT_EQ(reused.size(), expected.size());
  for (std::size_t i = 0; i < reused.size(); ++i) {
    EXPECT_EQ(reused[i].sign, expected[i].sign) << "frame " << i;
    EXPECT_EQ(reused[i].reject_reason, expected[i].reject_reason) << "frame " << i;
    EXPECT_EQ(reused[i].accepted, expected[i].accepted) << "frame " << i;
    // Bit-identical, not approximately equal: both run the same canonical
    // pipeline; only the scratch is fresh on one side and warm on the other.
    EXPECT_EQ(reused[i].distance, expected[i].distance) << "frame " << i;
    EXPECT_EQ(reused[i].margin, expected[i].margin) << "frame " << i;
    EXPECT_EQ(reused[i].sax_word, expected[i].sax_word) << "frame " << i;
  }
}

TEST_F(FrameStreamSuite, DeterministicOverShuffled64FrameStream) {
  // Two passes over the same shuffled 64-frame stream through one scratch
  // must yield byte-identical payloads, and a 4-shard PerceptionService fed
  // the same frames (8 streams, so every shard works concurrently) must
  // deliver the same payload for every frame — any state leaking between
  // frames or data race between shards shows up here.
  const std::vector<imaging::GrayImage> base = make_frames();
  std::vector<std::size_t> order(64);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i % base.size();
  util::Rng rng(20260726);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(0, static_cast<int>(i) - 1)]);
  }
  std::vector<imaging::GrayImage> frames;
  frames.reserve(order.size());
  for (const std::size_t i : order) frames.push_back(base[i]);

  RecognizerScratch scratch;
  const std::vector<RecognitionResult> first = recognize_all(frames, scratch);
  const std::vector<RecognitionResult> second = recognize_all(frames, scratch);
  ASSERT_EQ(first.size(), 64u);
  EXPECT_EQ(payload_bytes(first), payload_bytes(second));

  constexpr std::uint32_t kStreams = 8;
  std::mutex mutex;
  std::map<std::size_t, RecognitionResult> by_frame;
  PerceptionServiceConfig service_config;
  service_config.shards = 4;
  PerceptionService service(
      sequential_->config(), sequential_->database_ptr(),
      [&](const StreamResult& r) {
        std::lock_guard<std::mutex> lock(mutex);
        by_frame[r.sequence * kStreams + r.stream_id] = r.result;
      },
      service_config);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    (void)service.submit(static_cast<std::uint32_t>(i % kStreams), frames[i]);
  }
  service.drain();
  ASSERT_EQ(by_frame.size(), frames.size());
  std::vector<RecognitionResult> streamed;
  for (const auto& entry : by_frame) streamed.push_back(entry.second);
  EXPECT_EQ(payload_bytes(streamed), payload_bytes(first));
}

TEST_F(FrameStreamSuite, ScratchSurvivesHeterogeneousFrames) {
  // Reusing one scratch across frames of different content (and hitting the
  // early-reject paths in between) must not leak state between frames.
  RecognizerScratch scratch;
  const std::vector<imaging::GrayImage> frames = make_frames();
  const std::string before = payload_bytes(recognize_all(frames, scratch));

  const std::vector<imaging::GrayImage> blanks(3, imaging::GrayImage(480, 360, 200));
  for (const RecognitionResult& r : recognize_all(blanks, scratch)) {
    EXPECT_EQ(r.reject_reason, RejectReason::kNoSilhouette);
    EXPECT_TRUE(r.sax_word.empty());
  }
  // A smaller raster in between resizes every buffer down and back up.
  const std::vector<imaging::GrayImage> small = {
      signs::render_sign(signs::HumanSign::kYes, {3.5, 3.0, 0.0}, {160, 120})};
  (void)recognize_all(small, scratch);

  EXPECT_EQ(payload_bytes(recognize_all(frames, scratch)), before);
}

TEST_F(FrameStreamSuite, WarmScratchMakesNoHeapAllocation) {
  // Once one pass has grown every buffer to its working size, the per-frame
  // pipeline (packed rasters, run arenas, contour, signature, query) runs
  // on the scratch alone — the streaming shards' steady state.
  const std::vector<imaging::GrayImage> frames = make_frames();
  RecognizerScratch scratch;
  std::vector<RecognitionResult> results(frames.size());
  const auto run_all = [&] {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      recognize_frame_into(sequential_->config(), sequential_->database(), frames[i],
                           scratch, results[i]);
    }
  };
  run_all();
  allocation_count = 0;
  counting_allocations = true;
  run_all();
  counting_allocations = false;
  EXPECT_EQ(allocation_count, 0u);
}

// ---------------------------------------------------------------------------
// RejectReason branch coverage for the shared recognize_frame_into pipeline.
// Each branch is exercised through BOTH a fresh SaxSignRecognizer and a
// warm, reused scratch to pin their equivalence on the reject paths.

RecognitionResult both_paths(const RecognizerConfig& config, const SignDatabase& db,
                             const imaging::GrayImage& frame) {
  const SaxSignRecognizer sequential(config, db);
  const RecognitionResult a = sequential.recognize(frame);
  RecognizerScratch scratch;
  RecognitionResult b;
  // Warm the scratch on a full-size accepted frame first.
  recognize_frame_into(config, db,
                       signs::render_sign(signs::HumanSign::kYes, {3.5, 3.0, 0.0}, {}),
                       scratch, b);
  recognize_frame_into(config, db, frame, scratch, b);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.sign, b.sign);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.margin, b.margin);
  EXPECT_EQ(a.sax_word, b.sax_word);
  return a;
}

TEST_F(FrameStreamSuite, AcceptedFrameHasReasonNone) {
  const auto frame = signs::render_sign(signs::HumanSign::kYes,
                                        DatabaseBuildOptions{}.canonical_view, {});
  const RecognitionResult result =
      both_paths(sequential_->config(), sequential_->database(), frame);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kNone);
}

TEST_F(FrameStreamSuite, NeutralMatchIsReasonNoneButNotAccepted) {
  const auto frame = signs::render_sign(signs::HumanSign::kNeutral,
                                        DatabaseBuildOptions{}.canonical_view, {});
  const RecognitionResult result =
      both_paths(sequential_->config(), sequential_->database(), frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.sign, signs::HumanSign::kNeutral);
  EXPECT_EQ(result.reject_reason, RejectReason::kNone);
}

TEST_F(FrameStreamSuite, BlankFrameRejectsNoSilhouette) {
  const imaging::GrayImage blank(480, 360, 200);
  const RecognitionResult result =
      both_paths(sequential_->config(), sequential_->database(), blank);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kNoSilhouette);
}

TEST_F(FrameStreamSuite, EmptyDatabaseRejectsNoSilhouette) {
  // The query-returned-nullopt branch: a valid silhouette but nothing to
  // match against.
  const RecognizerConfig config;
  const SignDatabase empty_db(make_encoder(config));
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, 0.0}, {});
  const RecognitionResult result = both_paths(config, empty_db, frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kNoSilhouette);
}

TEST_F(FrameStreamSuite, TinyContourRejectsDegenerateShape) {
  // A 2x2 blob survives thresholding (morphology off, min area 1) but its
  // contour has fewer than 8 points.
  RecognizerConfig config;
  config.morphology_radius = 0;
  config.min_silhouette_area = 1;
  imaging::GrayImage frame(64, 64, 200);
  frame(10, 10) = 20;
  frame(11, 10) = 20;
  frame(10, 11) = 20;
  frame(11, 11) = 20;
  const RecognitionResult result =
      both_paths(config, sequential_->database(), frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kDegenerateShape);
}

TEST_F(FrameStreamSuite, ZeroSignatureSamplesRejectsDegenerateShape) {
  // The second kDegenerateShape branch: a healthy contour whose signature
  // extraction is configured to produce nothing.
  RecognizerConfig config;
  config.signature_samples = 0;
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {3.5, 3.0, 0.0}, {});
  const RecognitionResult result =
      both_paths(config, sequential_->database(), frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kDegenerateShape);
}

TEST_F(FrameStreamSuite, StrictThresholdRejectsAboveThreshold) {
  RecognizerConfig config;
  config.accept_distance = 1e-12;  // only a perfect replica could pass
  const auto frame = signs::render_sign(signs::HumanSign::kNo, {3.0, 3.0, 15.0}, {});
  const RecognitionResult result =
      both_paths(config, sequential_->database(), frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kAboveThreshold);
  EXPECT_GT(result.distance, config.accept_distance);
}

TEST_F(FrameStreamSuite, HugeMarginRequirementRejectsLowMargin) {
  RecognizerConfig config;
  config.min_margin = 1e9;  // no pair of templates is this well separated
  const auto frame = signs::render_sign(signs::HumanSign::kYes,
                                        DatabaseBuildOptions{}.canonical_view, {});
  const RecognitionResult result =
      both_paths(config, sequential_->database(), frame);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reject_reason, RejectReason::kLowMargin);
  EXPECT_LT(result.margin, config.min_margin);
}

TEST_F(FrameStreamSuite, InvalidFrameThrowsAndScratchSurvives) {
  // A default-constructed (0x0) frame makes the pipeline throw; the same
  // scratch must stay usable and produce the sequential payload afterwards.
  RecognizerScratch scratch;
  RecognitionResult result;
  const imaging::GrayImage invalid;
  EXPECT_THROW(recognize_frame_into(sequential_->config(), sequential_->database(),
                                    invalid, scratch, result),
               std::invalid_argument);
  EXPECT_THROW((void)sequential_->recognize(invalid), std::invalid_argument);
  const auto good = signs::render_sign(signs::HumanSign::kYes,
                                       DatabaseBuildOptions{}.canonical_view, {});
  recognize_frame_into(sequential_->config(), sequential_->database(), good, scratch,
                       result);
  EXPECT_TRUE(result.accepted);
  std::string reused;
  std::string fresh;
  append_payload(result, reused);
  append_payload(sequential_->recognize(good), fresh);
  EXPECT_EQ(reused, fresh);
}

TEST_F(FrameStreamSuite, EnginesShareOneDatabaseViaSharedHandle) {
  // Recognisers and services built from one handle match against literally
  // the same immutable database object — no copies.
  const std::shared_ptr<const SignDatabase>& db = sequential_->database_ptr();
  const SaxSignRecognizer a(sequential_->config(), db);
  PerceptionService b(sequential_->config(), db, [](const StreamResult&) {},
                      {/*shards=*/2, /*queue_capacity=*/4,
                       util::OverflowPolicy::kBlock});
  EXPECT_EQ(&a.database(), &b.database());
  EXPECT_EQ(&a.database(), db.get());
  EXPECT_EQ(b.shard_database(1), db.get());
  EXPECT_EQ(&sequential_->database(), db.get());
}

}  // namespace
}  // namespace hdc::recognition
