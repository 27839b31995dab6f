// Golden recognition payloads: rendered frames across signs, views and
// sensor noise, each pinned to the exact payload the pipeline produced when
// the table was captured. Every other recognition test compares two paths
// of the CURRENT build against each other; this one is the only check that
// payloads stay unchanged across commits (e.g. when the matching kernel or
// the database query is restructured).
//
// distance/margin are pinned as hex-float bits and compared bit for bit on
// every build. There is one rotation kernel and the build turns off FP
// contraction, so a target with FMA must reproduce the table exactly, as
// one without does.
//
// Regenerate (only when a payload change is intended, and say why in the
// commit):  HDC_PRINT_GOLDEN=1 ./recognition_golden_test
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "recognition/recognizer.hpp"
#include "signs/scene.hpp"
#include "util/rng.hpp"

namespace hdc::recognition {
namespace {

struct GoldenFrame {
  const char* name;
  signs::HumanSign sign;
  signs::ViewGeometry view;
  double noise_stddev;  ///< 0 = clean render; otherwise seeded noise + clutter
};

struct GoldenPayload {
  bool accepted;
  signs::HumanSign sign;
  RejectReason reject_reason;
  const char* sax_word;
  double distance;
  double margin;
};

using signs::HumanSign;

// 4 signs x 3 views (altitude band and relative azimuth), plus noisy frames.
const GoldenFrame kFrames[] = {
    {"neutral@2.0/0", HumanSign::kNeutral, {2.0, 3.0, 0.0}, 0.0},
    {"neutral@3.5/20", HumanSign::kNeutral, {3.5, 3.0, 20.0}, 0.0},
    {"neutral@5.0/-35", HumanSign::kNeutral, {5.0, 3.0, -35.0}, 0.0},
    {"attention@2.0/0", HumanSign::kAttentionGained, {2.0, 3.0, 0.0}, 0.0},
    {"attention@3.5/20", HumanSign::kAttentionGained, {3.5, 3.0, 20.0}, 0.0},
    {"attention@5.0/-35", HumanSign::kAttentionGained, {5.0, 3.0, -35.0}, 0.0},
    {"yes@2.0/0", HumanSign::kYes, {2.0, 3.0, 0.0}, 0.0},
    {"yes@3.5/20", HumanSign::kYes, {3.5, 3.0, 20.0}, 0.0},
    {"yes@5.0/-35", HumanSign::kYes, {5.0, 3.0, -35.0}, 0.0},
    {"no@2.0/0", HumanSign::kNo, {2.0, 3.0, 0.0}, 0.0},
    {"no@3.5/20", HumanSign::kNo, {3.5, 3.0, 20.0}, 0.0},
    {"no@5.0/-35", HumanSign::kNo, {5.0, 3.0, -35.0}, 0.0},
    {"no@3.5/80", HumanSign::kNo, {3.5, 3.0, 80.0}, 0.0},
    {"yes@3.5/0+noise", HumanSign::kYes, {3.5, 3.0, 0.0}, 25.0},
    {"attention@3.0/10+noise", HumanSign::kAttentionGained, {3.0, 3.0, 10.0}, 25.0},
};

// clang-format off
const GoldenPayload kGolden[] = {
    {false, HumanSign::kNeutral, RejectReason::kNone, "hhhecagcahbbcghg", 0x1.325bc00457c0ap+1, 0x1.ac09b35c87535p+2},  // neutral@2.0/0
    {false, HumanSign::kNeutral, RejectReason::kNone, "hihdcbgacgabehhg", 0x1.588966fcf2d0cp+1, 0x1.8a60ac0cd8d16p+2},  // neutral@3.5/20
    {false, HumanSign::kNeutral, RejectReason::kNone, "hffgeadfacdbdhih", 0x1.8083e73d0bb87p+2, 0x1.01b891c44009ap+1},  // neutral@5.0/-35
    {true, HumanSign::kAttentionGained, RejectReason::kNone, "iefeeecbfebgcaei", 0x1.263898f34f92ep+1, 0x1.e5d4fb48aa908p-1},  // attention@2.0/0
    {true, HumanSign::kAttentionGained, RejectReason::kNone, "ieeffecbfechbaei", 0x1.2f53003fc8269p+1, 0x1.6fca7fa7cb028p+0},  // attention@3.5/20
    {true, HumanSign::kAttentionGained, RejectReason::kNone, "ifdcdffcfdbdabgi", 0x1.73774d50d4f7cp+2, 0x1.8fa7294b344fp-2},  // attention@5.0/-35
    {true, HumanSign::kYes, RejectReason::kNone, "iccdihbafgcgeaci", 0x1.47a0f23abb4cp+1, 0x1.b6db137731e12p+1},  // yes@2.0/0
    {true, HumanSign::kYes, RejectReason::kNone, "ifabgdgfabhidcch", 0x1.dd2391976c0fap+0, 0x1.470d348d0fa6ap+2},  // yes@3.5/20
    {true, HumanSign::kNo, RejectReason::kNone, "ifbbehebegcfbafi", 0x1.2bdd15da3699ap+2, 0x1.3d7bdcdcc8a4p+0},  // yes@5.0/-35
    {true, HumanSign::kNo, RejectReason::kNone, "ieedffbafebgcaei", 0x1.1c435fc515bbcp+1, 0x1.6a1847bffda88p+0},  // no@2.0/0
    {true, HumanSign::kNo, RejectReason::kNone, "ideeffbbgddhbaei", 0x1.474324d639b11p+1, 0x1.2131f94d4679p+0},  // no@3.5/20
    {true, HumanSign::kNo, RejectReason::kNone, "ifcbdhfbbfcebbfi", 0x1.8842014cc91dbp+2, 0x1.f92b42666aeap-2},  // no@5.0/-35
    {false, HumanSign::kAttentionGained, RejectReason::kAboveThreshold, "ghfdbbegeaabgihg", 0x1.1e3912a4b54abp+3, 0x1.34e07825f6ep-4},  // no@3.5/80
    {true, HumanSign::kYes, RejectReason::kNone, "hccchidachehdaci", 0x1.4936ad8033eabp+1, 0x1.001b2c40ae6cep+2},  // yes@3.5/0+noise
    {true, HumanSign::kAttentionGained, RejectReason::kNone, "iefeefcbefbgbafi", 0x1.dcf8bcf514c16p+0, 0x1.36bd019691512p+0},  // attention@3.0/10+noise
};
// clang-format on

imaging::GrayImage render(const GoldenFrame& f, std::size_t index) {
  signs::RenderOptions options;
  if (f.noise_stddev <= 0.0) return signs::render_sign(f.sign, f.view, options);
  options.noise_stddev = f.noise_stddev;
  options.clutter_count = 8;
  util::Rng rng(0x601d0000ULL + index);
  return signs::render_sign(f.sign, f.view, options, &rng);
}

const char* sign_enum(HumanSign sign) {
  switch (sign) {
    case HumanSign::kNeutral: return "HumanSign::kNeutral";
    case HumanSign::kAttentionGained: return "HumanSign::kAttentionGained";
    case HumanSign::kYes: return "HumanSign::kYes";
    case HumanSign::kNo: return "HumanSign::kNo";
  }
  return "?";
}

std::vector<RecognitionResult> recognize_all() {
  const SaxSignRecognizer reference(RecognizerConfig{}, DatabaseBuildOptions{});
  RecognizerScratch scratch;  // one scratch reused across every frame
  std::vector<RecognitionResult> results;
  for (std::size_t i = 0; i < std::size(kFrames); ++i) {
    RecognitionResult result;
    recognize_frame_into(reference.config(), reference.database(), render(kFrames[i], i),
                         scratch, result);
    results.push_back(result);
  }
  return results;
}

void print_table(const std::vector<RecognitionResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RecognitionResult& r = results[i];
    std::printf("    {%s, %s, RejectReason::k%s, \"%s\", %a, %a},  // %s\n",
                r.accepted ? "true" : "false", sign_enum(r.sign),
                to_string(r.reject_reason), r.sax_word.c_str(), r.distance, r.margin,
                kFrames[i].name);
  }
}

void expect_float(double actual, double golden, const char* what, const char* frame) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(golden))
      << frame << " " << what << ": " << actual << " vs golden " << golden;
}

TEST(RecognitionGolden, PayloadsMatchCapturedTable) {
  const std::vector<RecognitionResult> results = recognize_all();
  if (std::getenv("HDC_PRINT_GOLDEN") != nullptr) print_table(results);
  static_assert(std::size(kFrames) >= 12, "4 signs x 3 views plus noisy frames");
  ASSERT_EQ(results.size(), std::size(kGolden)) << "golden table out of date";

  for (std::size_t i = 0; i < results.size(); ++i) {
    const RecognitionResult& r = results[i];
    const GoldenPayload& g = kGolden[i];
    const char* frame = kFrames[i].name;
    EXPECT_EQ(r.accepted, g.accepted) << frame;
    EXPECT_EQ(r.sign, g.sign) << frame;
    EXPECT_EQ(r.reject_reason, g.reject_reason) << frame;
    EXPECT_EQ(r.sax_word, g.sax_word) << frame;
    expect_float(r.distance, g.distance, "distance", frame);
    expect_float(r.margin, g.margin, "margin", frame);
  }
}

TEST(RecognitionGolden, TableCoversEveryOutcome) {
  // The table is only a useful oracle if it exercises acceptance, the
  // neutral "recognised but not communicative" path and a rejection.
  bool accepted = false, neutral = false, rejected = false;
  for (const GoldenPayload& g : kGolden) {
    accepted |= g.accepted;
    neutral |= !g.accepted && g.sign == HumanSign::kNeutral &&
               g.reject_reason == RejectReason::kNone;
    rejected |= g.reject_reason != RejectReason::kNone;
  }
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(neutral);
  EXPECT_TRUE(rejected);
}

}  // namespace
}  // namespace hdc::recognition
