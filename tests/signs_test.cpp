#include <gtest/gtest.h>

#include <cmath>

#include "imaging/components.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "signs/camera.hpp"
#include "signs/multi_drone_feed.hpp"
#include "signs/scene.hpp"
#include "signs/sign_poses.hpp"
#include "signs/skeleton.hpp"

namespace hdc::signs {
namespace {

using hdc::util::Vec2;
using hdc::util::Vec3;

TEST(SignVocabulary, NamesAndSets) {
  EXPECT_EQ(to_string(HumanSign::kYes), "Yes");
  EXPECT_EQ(to_string(HumanSign::kNo), "No");
  EXPECT_EQ(kCommunicativeSigns.size(), 3u);
  EXPECT_EQ(kAllSigns.size(), 4u);
}

TEST(Skeleton, BasicStructure) {
  const Skeleton s = build_skeleton(canonical_pose(HumanSign::kNeutral),
                                    BodyDimensions{}, {0.0, 0.0, 0.0}, 0.0);
  // torso + 2x2 legs + 2 clavicles + 2x3 arm segments = 13 capsules.
  EXPECT_EQ(s.capsules.size(), 13u);
  // Head sits near full height.
  EXPECT_NEAR(s.head_center.z, 1.75 - 0.11, 1e-9);
  // Feet at ground level.
  double min_z = 1e18;
  for (const Capsule& c : s.capsules) min_z = std::min({min_z, c.a.z, c.b.z});
  EXPECT_NEAR(min_z, 0.0, 1e-9);
}

TEST(Skeleton, FacingYawRotatesBody) {
  // With yaw pi/2 the body's lateral axis maps from +x to... rotate and
  // check the right shoulder moved as a rigid rotation about z.
  const BodyPose pose = canonical_pose(HumanSign::kYes);
  const Skeleton a = build_skeleton(pose, BodyDimensions{}, {0.0, 0.0, 0.0}, 0.0);
  const Skeleton b =
      build_skeleton(pose, BodyDimensions{}, {0.0, 0.0, 0.0}, hdc::util::kPi / 2);
  ASSERT_EQ(a.capsules.size(), b.capsules.size());
  for (std::size_t i = 0; i < a.capsules.size(); ++i) {
    // |p| is preserved by rotation about the z axis through the base.
    EXPECT_NEAR(a.capsules[i].a.xy().norm(), b.capsules[i].a.xy().norm(), 1e-9);
    EXPECT_NEAR(a.capsules[i].a.z, b.capsules[i].a.z, 1e-9);
  }
}

TEST(Skeleton, BaseTranslationApplies) {
  const Skeleton s = build_skeleton(canonical_pose(HumanSign::kNeutral),
                                    BodyDimensions{}, {5.0, -3.0, 0.0}, 0.0);
  EXPECT_NEAR(s.head_center.x, 5.0, 1e-9);
  EXPECT_NEAR(s.head_center.y, -3.0, 1e-9);
}

TEST(CanonicalPoses, AreDistinctPerSign) {
  const BodyPose yes = canonical_pose(HumanSign::kYes);
  const BodyPose no = canonical_pose(HumanSign::kNo);
  const BodyPose attention = canonical_pose(HumanSign::kAttentionGained);
  const BodyPose neutral = canonical_pose(HumanSign::kNeutral);
  // Yes: both arms high. No: asymmetric. Attention: bent elbow.
  EXPECT_GT(yes.left_arm.abduction_deg, 100.0);
  EXPECT_GT(yes.right_arm.abduction_deg, 100.0);
  EXPECT_GT(no.right_arm.abduction_deg, 100.0);
  EXPECT_LT(no.left_arm.abduction_deg, 60.0);
  EXPECT_GT(attention.right_arm.elbow_flexion_deg, 45.0);
  EXPECT_LT(neutral.right_arm.abduction_deg, 20.0);
}

TEST(PoseJitter, SamplingStaysInJointLimits) {
  hdc::util::Rng rng(3);
  const PoseJitter sloppy{40.0, 10.0};  // exaggerated to hit the clamps
  for (int i = 0; i < 200; ++i) {
    const BodyPose p = sample_pose(HumanSign::kYes, sloppy, rng);
    EXPECT_GE(p.right_arm.abduction_deg, 0.0);
    EXPECT_LE(p.right_arm.abduction_deg, 180.0);
    EXPECT_GE(p.left_arm.elbow_flexion_deg, 0.0);
    EXPECT_LE(p.left_arm.elbow_flexion_deg, 150.0);
  }
}

TEST(PoseJitter, ZeroJitterIsCanonical) {
  hdc::util::Rng rng(5);
  const BodyPose p = sample_pose(HumanSign::kNo, PoseJitter{0.0, 0.0}, rng);
  const BodyPose c = canonical_pose(HumanSign::kNo);
  EXPECT_DOUBLE_EQ(p.right_arm.abduction_deg, c.right_arm.abduction_deg);
  EXPECT_DOUBLE_EQ(p.lean_deg, 0.0);
}

TEST(PoseJitter, RolePresetsOrdered) {
  EXPECT_LT(supervisor_jitter().joint_stddev_deg, worker_jitter().joint_stddev_deg);
  EXPECT_LT(worker_jitter().joint_stddev_deg, visitor_jitter().joint_stddev_deg);
}

TEST(Camera, CenterProjectsToPrincipalPoint) {
  const PinholeCamera camera({0.0, 0.0, 1.0}, {0.0, 10.0, 1.0}, 640, 480, 60.0);
  const auto p = camera.project({0.0, 5.0, 1.0});
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->pixel.x, 320.0, 1e-9);
  EXPECT_NEAR(p->pixel.y, 240.0, 1e-9);
  EXPECT_NEAR(p->depth, 5.0, 1e-9);
}

TEST(Camera, BehindCameraIsRejected) {
  const PinholeCamera camera({0.0, 0.0, 1.0}, {0.0, 10.0, 1.0}, 640, 480, 60.0);
  EXPECT_FALSE(camera.project({0.0, -5.0, 1.0}).has_value());
  EXPECT_FALSE(camera.project({0.0, 0.0, 1.0}).has_value());
}

TEST(Camera, UpInWorldIsUpInImage) {
  // A point above the optical axis must have a smaller v (image up).
  const PinholeCamera camera({0.0, 0.0, 1.0}, {0.0, 10.0, 1.0}, 640, 480, 60.0);
  const auto high = camera.project({0.0, 5.0, 2.0});
  const auto low = camera.project({0.0, 5.0, 0.0});
  ASSERT_TRUE(high && low);
  EXPECT_LT(high->pixel.y, low->pixel.y);
  // And +x world (right of view direction +y) maps to larger u... right of
  // the view along +y is +x? forward=(0,1,0), right=f x up=(1,0,0)... yes.
  const auto right = camera.project({2.0, 5.0, 1.0});
  ASSERT_TRUE(right.has_value());
  EXPECT_GT(right->pixel.x, 320.0);
}

TEST(Camera, RadiusScalesInverselyWithDepth) {
  const PinholeCamera camera({0.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, 640, 480, 60.0);
  const double near = camera.project_radius(0.5, 2.0);
  const double far = camera.project_radius(0.5, 8.0);
  EXPECT_NEAR(near / far, 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(camera.project_radius(0.5, 0.0), 0.0);
}

TEST(Camera, ValidatesConstruction) {
  EXPECT_THROW(PinholeCamera({0, 0, 0}, {0, 1, 0}, 0, 480), std::invalid_argument);
  EXPECT_THROW(PinholeCamera({0, 0, 0}, {0, 1, 0}, 640, 480, 0.0), std::invalid_argument);
  EXPECT_THROW(PinholeCamera({0, 0, 0}, {0, 0, 0}, 640, 480), std::invalid_argument);
}

/// The recogniser's silhouette front end (dark Otsu, close, open, largest
/// component), unpacked to bytes.
imaging::BinaryImage silhouette_of(const imaging::GrayImage& frame) {
  imaging::BitImage bits, closed, scratch_a, scratch_b, mask;
  imaging::otsu_threshold_dark_into(frame, bits);
  imaging::close_into(bits, 1, closed, scratch_a, scratch_b);
  imaging::open_into(closed, 1, bits, scratch_a, scratch_b);
  std::vector<imaging::Component> components;
  imaging::LabelScratch label_scratch;
  imaging::largest_component_mask_into(bits, 50, mask, components, label_scratch);
  imaging::BinaryImage silhouette;
  imaging::unpack(mask, silhouette);
  return silhouette;
}

TEST(Scene, RendersVisibleSignallerAtPaperGeometry) {
  for (const double altitude : {2.0, 3.5, 5.0}) {
    const imaging::GrayImage frame =
        render_sign(HumanSign::kYes, {altitude, 3.0, 0.0}, RenderOptions{});
    const auto area = imaging::foreground_area(silhouette_of(frame));
    EXPECT_GT(area, 400u) << "altitude " << altitude;
    EXPECT_LT(area, frame.pixel_count() / 4) << "altitude " << altitude;
  }
}

TEST(Scene, DeterministicWithoutRng) {
  const imaging::GrayImage a = render_sign(HumanSign::kNo, {3.5, 3.0, 20.0}, {});
  const imaging::GrayImage b = render_sign(HumanSign::kNo, {3.5, 3.0, 20.0}, {});
  EXPECT_EQ(a, b);
}

TEST(Scene, AzimuthForeshortensSilhouetteWidth) {
  // The physical cause of the paper's dead angle: at high relative azimuth
  // the silhouette narrows.
  const auto width_at = [](double azimuth) {
    const imaging::GrayImage frame =
        render_sign(HumanSign::kYes, {3.5, 3.0, azimuth}, RenderOptions{});
    const auto mask = silhouette_of(frame);
    int min_x = mask.width(), max_x = -1;
    for (int y = 0; y < mask.height(); ++y) {
      for (int x = 0; x < mask.width(); ++x) {
        if (mask(x, y) == imaging::kForeground) {
          min_x = std::min(min_x, x);
          max_x = std::max(max_x, x);
        }
      }
    }
    return max_x - min_x;
  };
  EXPECT_GT(width_at(0.0), width_at(60.0));
  EXPECT_GT(width_at(30.0), width_at(75.0));
}

TEST(Scene, NoiseAndClutterNeedRng) {
  RenderOptions options;
  options.noise_stddev = 8.0;
  options.clutter_count = 5;
  hdc::util::Rng rng(11);
  const imaging::GrayImage noisy =
      render_scene(canonical_pose(HumanSign::kNo), BodyDimensions{}, {3.5, 3.0, 0.0},
                   options, &rng);
  const imaging::GrayImage clean = render_sign(HumanSign::kNo, {3.5, 3.0, 0.0}, {});
  EXPECT_FALSE(noisy == clean);
  // Without an rng the options degrade gracefully to a clean render.
  const imaging::GrayImage no_rng =
      render_scene(canonical_pose(HumanSign::kNo), BodyDimensions{}, {3.5, 3.0, 0.0},
                   options, nullptr);
  EXPECT_EQ(no_rng, clean);
}

TEST(Scene, LightingAppliedInRender) {
  RenderOptions dim;
  dim.lighting_gain = 0.5;
  const imaging::GrayImage dark = render_sign(HumanSign::kNo, {3.5, 3.0, 0.0}, dim);
  const imaging::GrayImage normal = render_sign(HumanSign::kNo, {3.5, 3.0, 0.0}, {});
  EXPECT_LT(dark(0, 0), normal(0, 0));
}

TEST(MultiDroneFeed, DefaultPlanIsDeterministicAcrossTwoRuns) {
  // Two independently constructed feeds with the same config must render
  // bit-identical frame sequences — the property every streaming test and
  // bench rests on.
  const MultiDroneFeedConfig config;
  const MultiDroneFeed a(config);
  const MultiDroneFeed b(config);
  for (std::size_t stream = 0; stream < config.streams; ++stream) {
    for (std::uint64_t tick = 0; tick < 10; ++tick) {
      const FramePlan plan_a = a.plan(stream, tick);
      const FramePlan plan_b = b.plan(stream, tick);
      EXPECT_EQ(plan_a.sign, plan_b.sign);
      EXPECT_EQ(plan_a.view.altitude_m, plan_b.view.altitude_m);
      EXPECT_EQ(plan_a.view.relative_azimuth_deg, plan_b.view.relative_azimuth_deg);
      EXPECT_EQ(a.render_frame(stream, tick), b.render_frame(stream, tick));
    }
  }
}

TEST(MultiDroneFeed, ScriptedScheduleIsDeterministicAndBitIdentical) {
  MultiDroneFeedConfig config;
  config.streams = 2;
  config.scripts = {
      {{HumanSign::kNeutral, 3, 0.0},
       {HumanSign::kAttentionGained, 4, 0.0},
       {HumanSign::kAttentionGained, 1, 60.0},  // scripted oblique noise
       {HumanSign::kYes, 5, 0.0}},
      {{HumanSign::kNo, 2, 0.0}, {HumanSign::kNeutral, 2, 0.0}},
  };
  const MultiDroneFeed a(config);
  const MultiDroneFeed b(config);
  ASSERT_EQ(a.script_period(0), 13u);
  ASSERT_EQ(a.script_period(1), 4u);

  // Same script -> bit-identical frames across two runs, both via
  // render_frame and via the prerender cache path.
  for (std::size_t stream = 0; stream < 2; ++stream) {
    const std::size_t period = static_cast<std::size_t>(a.script_period(stream));
    const auto frames_a = a.prerender(stream, 2 * period);
    const auto frames_b = b.prerender(stream, 2 * period);
    ASSERT_EQ(frames_a.size(), frames_b.size());
    for (std::size_t i = 0; i < frames_a.size(); ++i) {
      EXPECT_EQ(frames_a[i], frames_b[i]) << "stream " << stream << " tick " << i;
      EXPECT_EQ(frames_a[i], a.render_frame(stream, i));
      // The schedule wraps: tick i and i + period see the same frame.
      EXPECT_EQ(a.render_frame(stream, i),
                a.render_frame(stream, i + 2 * period));
    }
  }

  // The plan follows the schedule steps and applies the azimuth offset on
  // top of the stream's base offset.
  EXPECT_EQ(a.plan(0, 0).sign, HumanSign::kNeutral);
  EXPECT_EQ(a.plan(0, 3).sign, HumanSign::kAttentionGained);
  EXPECT_EQ(a.plan(0, 7).sign, HumanSign::kAttentionGained);
  EXPECT_EQ(a.plan(0, 7).view.relative_azimuth_deg,
            a.plan(0, 3).view.relative_azimuth_deg + 60.0);
  EXPECT_EQ(a.plan(0, 8).sign, HumanSign::kYes);
  // Scripted mode pins the altitude per stream.
  EXPECT_EQ(a.plan(0, 0).view.altitude_m, a.plan(0, 12).view.altitude_m);
}

TEST(MultiDroneFeed, ValidatesScriptsAndStreams) {
  MultiDroneFeedConfig config;
  config.streams = 0;
  EXPECT_THROW(MultiDroneFeed{config}, std::invalid_argument);
  config = {};
  config.altitudes.clear();
  EXPECT_THROW(MultiDroneFeed{config}, std::invalid_argument);
  config = {};
  config.scripts = {{}};  // empty schedule
  EXPECT_THROW(MultiDroneFeed{config}, std::invalid_argument);
  config = {};
  config.scripts = {{{HumanSign::kYes, 0, 0.0}}};  // zero-tick step
  EXPECT_THROW(MultiDroneFeed{config}, std::invalid_argument);
  const MultiDroneFeed feed{MultiDroneFeedConfig{}};
  EXPECT_THROW((void)feed.plan(99, 0), std::out_of_range);
  EXPECT_THROW((void)feed.script_period(99), std::out_of_range);
  EXPECT_THROW((void)feed.script_period(0), std::logic_error);
}

TEST(ViewCamera, PlacedAtRequestedGeometry) {
  const ViewGeometry view{4.0, 3.0, 30.0};
  const PinholeCamera camera = make_view_camera(view, BodyDimensions{}, RenderOptions{});
  EXPECT_NEAR(camera.position().z, 4.0, 1e-9);
  EXPECT_NEAR(camera.position().xy().norm(), 3.0, 1e-9);
  // Azimuth measured from the facing axis (+y).
  const double azimuth =
      std::atan2(camera.position().x, camera.position().y);
  EXPECT_NEAR(hdc::util::rad_to_deg(azimuth), 30.0, 1e-9);
}

}  // namespace
}  // namespace hdc::signs
