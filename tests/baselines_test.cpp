#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/chain_code.hpp"
#include "baselines/hu_moments.hpp"
#include "baselines/template_match.hpp"
#include "imaging/bit_image.hpp"
#include "imaging/draw.hpp"
#include "signs/scene.hpp"
#include "signs/sign_poses.hpp"
#include "util/rng.hpp"

namespace hdc::baselines {
namespace {

imaging::BitImage block_mask(int width, int height, int x0, int y0, int x1, int y1) {
  imaging::BinaryImage img(width, height, imaging::kBackground);
  imaging::fill_rect(img, x0, y0, x1, y1, imaging::kForeground);
  imaging::BitImage bits;
  imaging::pack(img, bits);
  return bits;
}

imaging::Contour trace(const imaging::BitImage& mask) {
  imaging::Contour contour;
  imaging::trace_boundary_into(mask, contour);
  return contour;
}

TEST(ExtractSilhouette, IsolatesDarkSubject) {
  imaging::GrayImage frame(100, 100, 200);
  imaging::fill_rect(frame, 30, 30, 59, 69, 25);   // dark subject
  imaging::fill_rect(frame, 5, 5, 7, 7, 25);       // small distractor
  const imaging::BitImage mask = extract_silhouette(frame, 50);
  EXPECT_TRUE(mask.test(40, 50));
  EXPECT_FALSE(mask.test(6, 6));  // smaller component dropped
}

TEST(HuMoments, TranslationInvariance) {
  const auto a = hu_moments(block_mask(100, 100, 10, 10, 29, 49));
  const auto b = hu_moments(block_mask(100, 100, 50, 40, 69, 79));
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(a[i], b[i], 1e-12) << i;
}

TEST(HuMoments, ScaleInvariance) {
  const auto small = hu_moments(block_mask(200, 200, 10, 10, 29, 49));  // 20x40
  const auto large = hu_moments(block_mask(200, 200, 10, 10, 49, 89));  // 40x80
  EXPECT_NEAR(small[0], large[0], 0.01 * std::abs(small[0]));
  EXPECT_NEAR(small[1], large[1], 0.05 * std::abs(small[1]) + 1e-9);
}

TEST(HuMoments, RotationBy90Degrees) {
  const auto landscape = hu_moments(block_mask(100, 100, 20, 40, 79, 59));  // 60x20
  const auto portrait = hu_moments(block_mask(100, 100, 40, 20, 59, 79));   // 20x60
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(landscape[i], portrait[i], 0.02 * std::abs(landscape[i]) + 1e-12) << i;
  }
}

TEST(HuMoments, EmptyMaskGivesZeros) {
  const auto hu = hu_moments(imaging::BitImage(10, 10));
  for (double v : hu) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ChainCode, FollowsSquareDirections) {
  const imaging::BitImage img = block_mask(40, 40, 10, 10, 29, 29);
  const imaging::Contour contour = trace(img);
  const auto code = freeman_chain_code(contour);
  ASSERT_GT(code.size(), 60u);
  int counts[8] = {};
  for (int d : code) ++counts[d];
  // E (0), N (2), W (4), S (6) dominate a rectangle boundary.
  EXPECT_GT(counts[0], 15);
  EXPECT_GT(counts[2], 15);
  EXPECT_GT(counts[4], 15);
  EXPECT_GT(counts[6], 15);
}

TEST(ChainCode, CurvatureHistogramNormalised) {
  const imaging::BitImage img = block_mask(40, 40, 10, 10, 29, 29);
  const auto code = freeman_chain_code(trace(img));
  const auto histogram = curvature_histogram(code);
  double sum = 0.0;
  for (double v : histogram) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // A mostly-straight boundary concentrates mass at delta 0.
  EXPECT_GT(histogram[0], 0.8);
}

TEST(ChainCode, CurvatureRotationInvariance) {
  const imaging::BitImage a = block_mask(60, 60, 10, 20, 49, 39);
  const imaging::BitImage b = block_mask(60, 60, 20, 10, 39, 49);
  const auto ha = curvature_histogram(freeman_chain_code(trace(a)));
  const auto hb = curvature_histogram(freeman_chain_code(trace(b)));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(ha[i], hb[i], 0.02) << i;
}

TEST(TemplateGrid, SelfSimilarityAndCrop) {
  const imaging::BitImage img = block_mask(100, 100, 20, 30, 59, 69);
  const auto grid = normalized_grid(img);
  ASSERT_EQ(grid.size(), static_cast<std::size_t>(kTemplateGrid) * kTemplateGrid);
  double sum = 0.0;
  for (double v : grid) sum += v;
  // A solid block crops to its bounding box -> (almost) full grid.
  EXPECT_NEAR(sum, static_cast<double>(grid.size()), grid.size() * 0.02);
  const auto empty = normalized_grid(imaging::BitImage(10, 10));
  for (double v : empty) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// All three baselines classify canonical renders correctly; robustness
/// differences only appear off-canonical (bench ABL-2 quantifies them).
class BaselineCanonical : public ::testing::TestWithParam<int> {};

TEST_P(BaselineCanonical, ClassifiesCanonicalViews) {
  std::unique_ptr<BaselineRecognizer> recognizer;
  switch (GetParam()) {
    case 0: recognizer = std::make_unique<HuMomentsRecognizer>(); break;
    case 1: recognizer = std::make_unique<ChainCodeRecognizer>(); break;
    default: recognizer = std::make_unique<TemplateMatchRecognizer>(); break;
  }
  const signs::ViewGeometry canonical{3.5, 3.0, 0.0};
  recognizer->train(canonical, signs::RenderOptions{});
  for (const signs::HumanSign sign : signs::kAllSigns) {
    const auto frame = signs::render_sign(sign, canonical, signs::RenderOptions{});
    const BaselineResult result = recognizer->classify(frame);
    EXPECT_TRUE(result.valid) << recognizer->name();
    EXPECT_EQ(result.sign, sign)
        << recognizer->name() << " misclassified " << signs::to_string(sign);
    EXPECT_NEAR(result.distance, 0.0, 1e-6) << recognizer->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineCanonical, ::testing::Values(0, 1, 2));

// ---- Off-canonical pins --------------------------------------------------------
// The canonical views above classify at distance ~0, so they cannot see a
// change in the silhouette front end. These frames sit off the trained view
// (azimuth, altitude, a jittered pose, sensor noise with clutter); each
// baseline's result on them is pinned, distance and margin as hex-float
// bits. Regenerate (only for an intended change, and say why in the
// commit):  HDC_PRINT_BASELINE_PINS=1 ./baselines_test

struct PinFrame {
  const char* name;
  signs::HumanSign sign;
  signs::ViewGeometry view;
  enum class Kind { kClean, kJittered, kNoisy } kind;
};

struct PinResult {
  bool valid;
  signs::HumanSign sign;
  double distance;
  double margin;
};

using signs::HumanSign;

const PinFrame kPinFrames[] = {
    {"yes@2.0/0", HumanSign::kYes, {2.0, 3.0, 0.0}, PinFrame::Kind::kClean},
    {"no@2.0/30", HumanSign::kNo, {2.0, 3.0, 30.0}, PinFrame::Kind::kClean},
    {"attention@2.0/60", HumanSign::kAttentionGained, {2.0, 3.0, 60.0}, PinFrame::Kind::kClean},
    {"neutral@5.0/0", HumanSign::kNeutral, {5.0, 3.0, 0.0}, PinFrame::Kind::kClean},
    {"attention@5.0/30", HumanSign::kAttentionGained, {5.0, 3.0, 30.0}, PinFrame::Kind::kClean},
    {"yes@5.0/60", HumanSign::kYes, {5.0, 3.0, 60.0}, PinFrame::Kind::kClean},
    {"no@3.5/15+jitter", HumanSign::kNo, {3.5, 3.0, 15.0}, PinFrame::Kind::kJittered},
    {"yes@3.5/10+noise", HumanSign::kYes, {3.5, 3.0, 10.0}, PinFrame::Kind::kNoisy},
};

// One row per (baseline, frame): hu-moments, chain-code, template-ncc.
// clang-format off
const PinResult kPins[] = {
    {true, HumanSign::kNo, 0x1.30869ff0ae09ep+4, 0x1.edd2b202842cp-1},  // hu-moments yes@2.0/0
    {true, HumanSign::kAttentionGained, 0x1.35ae033e64974p+3, 0x1.8147217bbfc38p+1},  // hu-moments no@2.0/30
    {true, HumanSign::kNo, 0x1.500ae0ae3219ap+3, 0x1.a0715cf7ce49cp+1},  // hu-moments attention@2.0/60
    {true, HumanSign::kNeutral, 0x1.2bdeced018ae6p+0, 0x1.67d88389fd355p+3},  // hu-moments neutral@5.0/0
    {true, HumanSign::kAttentionGained, 0x1.6138471511f45p+3, 0x1.ee92f87ad62ep+1},  // hu-moments attention@5.0/30
    {true, HumanSign::kNo, 0x1.4aaafec5dfb7dp+3, 0x1.76b21c78ad31cp+1},  // hu-moments yes@5.0/60
    {true, HumanSign::kAttentionGained, 0x1.e459818076724p-1, 0x1.24fbc79bf3047p+3},  // hu-moments no@3.5/15+jitter
    {true, HumanSign::kNo, 0x1.7e750527b836ep+1, 0x1.dd401cdfd77c9p+2},  // hu-moments yes@3.5/10+noise
    {true, HumanSign::kAttentionGained, 0x1.5419269f1ed32p-9, 0x1.570b0c9d418cp-11},  // chain-code yes@2.0/0
    {true, HumanSign::kNeutral, 0x1.3edff81430812p-15, 0x1.cf08bff279558p-10},  // chain-code no@2.0/30
    {true, HumanSign::kAttentionGained, 0x1.0a1fbee65c269p-10, 0x1.56d42ef44cb36p-11},  // chain-code attention@2.0/60
    {true, HumanSign::kNeutral, 0x1.802bf01d7b8a8p-7, 0x1.c7269a52acd08p-8},  // chain-code neutral@5.0/0
    {true, HumanSign::kNeutral, 0x1.8f4a0ac2488e6p-6, 0x1.4901e2bffd354p-8},  // chain-code attention@5.0/30
    {true, HumanSign::kNeutral, 0x1.d82e311781e87p-5, 0x1.1a41729fb35d4p-7},  // chain-code yes@5.0/60
    {true, HumanSign::kNeutral, 0x1.563633b436758p-11, 0x1.b080caa0631aap-11},  // chain-code no@3.5/15+jitter
    {true, HumanSign::kAttentionGained, 0x1.8689122dc8598p-8, 0x1.b01db629b378p-12},  // chain-code yes@3.5/10+noise
    {true, HumanSign::kYes, 0x1.392f2101cca84p-3, 0x1.68c22ed7ab57cp-2},  // template-ncc yes@2.0/0
    {true, HumanSign::kNo, 0x1.9fa55eb5be346p-2, 0x1.3d0e74cd53b7p-3},  // template-ncc no@2.0/30
    {true, HumanSign::kAttentionGained, 0x1.49d94fe5c021p-2, 0x1.28fcc3fbe148ep-2},  // template-ncc attention@2.0/60
    {true, HumanSign::kNeutral, 0x1.f468451af7aep-5, 0x1.4b0b18e063964p-1},  // template-ncc neutral@5.0/0
    {true, HumanSign::kAttentionGained, 0x1.98b8720933196p-2, 0x1.9125d73ec3fd6p-2},  // template-ncc attention@5.0/30
    {true, HumanSign::kYes, 0x1.2a8909223df52p-1, 0x1.5ce97c3e0124p-4},  // template-ncc yes@5.0/60
    {true, HumanSign::kNo, 0x1.a7492d1fbc408p-3, 0x1.3a4a272403bp-2},  // template-ncc no@3.5/15+jitter
    {true, HumanSign::kYes, 0x1.e6a0a51e7b34p-3, 0x1.361d1f19b0d5ap-2},  // template-ncc yes@3.5/10+noise
};
// clang-format on

imaging::GrayImage render_pin_frame(const PinFrame& f, std::size_t index) {
  util::Rng rng(0xba5e0000ULL + index);
  switch (f.kind) {
    case PinFrame::Kind::kClean:
      return signs::render_sign(f.sign, f.view, signs::RenderOptions{});
    case PinFrame::Kind::kJittered: {
      const signs::BodyPose pose = signs::sample_pose(f.sign, signs::worker_jitter(), rng);
      return signs::render_scene(pose, signs::BodyDimensions{}, f.view,
                                 signs::RenderOptions{}, &rng);
    }
    case PinFrame::Kind::kNoisy: {
      signs::RenderOptions options;
      options.noise_stddev = 25.0;
      options.clutter_count = 8;
      return signs::render_sign(f.sign, f.view, options, &rng);
    }
  }
  return {};
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

void expect_bits(double actual, double pinned, const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(pinned))
      << where << ": " << actual << " vs pinned " << pinned;
}

TEST(BaselinePins, OffCanonicalResultsMatchCapturedTable) {
  std::vector<std::unique_ptr<BaselineRecognizer>> recognizers;
  recognizers.push_back(std::make_unique<HuMomentsRecognizer>());
  recognizers.push_back(std::make_unique<ChainCodeRecognizer>());
  recognizers.push_back(std::make_unique<TemplateMatchRecognizer>());
  std::vector<imaging::GrayImage> frames;
  for (std::size_t i = 0; i < std::size(kPinFrames); ++i) {
    frames.push_back(render_pin_frame(kPinFrames[i], i));
  }

  std::vector<BaselineResult> results;
  for (const auto& recognizer : recognizers) {
    recognizer->train({3.5, 3.0, 0.0}, signs::RenderOptions{});
    for (const imaging::GrayImage& frame : frames) results.push_back(recognizer->classify(frame));
  }
  const bool print = std::getenv("HDC_PRINT_BASELINE_PINS") != nullptr;
  for (std::size_t i = 0; print && i < results.size(); ++i) {
    const BaselineResult& r = results[i];
    std::printf("    {%s, %s, %a, %a},  // %s %s\n", r.valid ? "true" : "false",
                sign_enum(r.sign), r.distance, r.margin,
                recognizers[i / frames.size()]->name().c_str(),
                kPinFrames[i % frames.size()].name);
  }
  ASSERT_EQ(results.size(), std::size(kPins)) << "pin table out of date";

  for (std::size_t i = 0; i < results.size(); ++i) {
    const BaselineResult& r = results[i];
    const PinResult& p = kPins[i];
    const std::string where = recognizers[i / frames.size()]->name() + " " +
                              kPinFrames[i % frames.size()].name;
    EXPECT_EQ(r.valid, p.valid) << where;
    EXPECT_EQ(r.sign, p.sign) << where;
    expect_bits(r.distance, p.distance, where + " distance");
    expect_bits(r.margin, p.margin, where + " margin");
  }
}

TEST(Baselines, EmptyFrameIsInvalid) {
  const imaging::GrayImage blank(480, 360, 200);
  HuMomentsRecognizer hu;
  hu.train({3.5, 3.0, 0.0}, signs::RenderOptions{});
  EXPECT_FALSE(hu.classify(blank).valid);

  TemplateMatchRecognizer tm;
  tm.train({3.5, 3.0, 0.0}, signs::RenderOptions{});
  EXPECT_FALSE(tm.classify(blank).valid);

  ChainCodeRecognizer cc;
  cc.train({3.5, 3.0, 0.0}, signs::RenderOptions{});
  EXPECT_FALSE(cc.classify(blank).valid);
}

TEST(Baselines, NamesAreDistinct) {
  EXPECT_NE(HuMomentsRecognizer{}.name(), ChainCodeRecognizer{}.name());
  EXPECT_NE(ChainCodeRecognizer{}.name(), TemplateMatchRecognizer{}.name());
}

}  // namespace
}  // namespace hdc::baselines
