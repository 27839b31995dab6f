// Multi-drone camera feed driver over the synthetic scene renderer.
//
// Simulates N drones watching N signallers at once: every stream is an
// independent deterministic script of (sign, view) pairs over the existing
// signs::Scene renderer — signs cycle, the altitude walks the paper's 2-5 m
// working band, and each stream carries its own azimuth offset so different
// drones see genuinely different geometry (some oblique enough to reject,
// as in a real cohort). Stream `s`, tick `t` always renders the same frame,
// which is what lets the tests and perfbench gate bit-identity against
// the sequential recogniser per stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "imaging/image.hpp"
#include "signs/scene.hpp"
#include "signs/sign.hpp"

namespace hdc::signs {

/// One step of a scripted sign schedule: hold `sign` for `ticks` frames,
/// viewed `azimuth_offset_deg` off the stream's base azimuth. Large
/// offsets (≈55°+ total) push the view past the recogniser's dead angle —
/// scripted steps are how scenarios inject deterministic noise (reject
/// gaps, one-frame flickers of another sign).
struct SignScheduleStep {
  HumanSign sign{HumanSign::kNeutral};
  std::uint64_t ticks{1};
  double azimuth_offset_deg{0.0};
};

/// A stream's scripted schedule; the feed repeats it cyclically.
using SignSchedule = std::vector<SignScheduleStep>;

struct MultiDroneFeedConfig {
  std::size_t streams{4};
  RenderOptions render{};
  double distance_m{3.0};
  /// Altitudes cycled per stream (the paper's working band by default).
  std::vector<double> altitudes{2.0, 3.5, 5.0};
  /// Per-stream azimuth offset: stream s sits at ((s % 5) - 2) * this many
  /// degrees off the signaller's axis, so an 8-stream cohort spans
  /// head-on to oblique views.
  double azimuth_step_deg{9.0};
  /// Scripted mode: when non-empty, stream s plays scripts[s % size()]
  /// instead of the default cycling plan — the sign and azimuth offset
  /// come from the schedule step covering the tick (wrapping at the
  /// schedule's total length), the altitude is fixed per stream at
  /// altitudes[s % size()], and the tick wobble is disabled (scripts own
  /// their noise). Same determinism guarantee: stream s, tick t always
  /// renders the same frame.
  std::vector<SignSchedule> scripts{};
};

/// What a stream's camera sees at one tick (exposed so callers can
/// recompute ground truth independently of the renderer).
struct FramePlan {
  HumanSign sign{HumanSign::kNeutral};
  ViewGeometry view{};
};

class MultiDroneFeed {
 public:
  explicit MultiDroneFeed(MultiDroneFeedConfig config = {});

  [[nodiscard]] std::size_t stream_count() const noexcept {
    return config_.streams;
  }
  [[nodiscard]] const MultiDroneFeedConfig& config() const noexcept {
    return config_;
  }

  /// The deterministic (sign, view) script: signs cycle every tick with a
  /// per-stream phase, the altitude advances one band step per sign cycle,
  /// the azimuth is the stream's fixed offset plus a small tick wobble.
  /// In scripted mode (config.scripts non-empty) the schedule dictates the
  /// sign and azimuth instead — see MultiDroneFeedConfig::scripts.
  [[nodiscard]] FramePlan plan(std::size_t stream, std::uint64_t tick) const;

  /// Total ticks of `stream`'s schedule before it repeats (scripted mode
  /// only; throws std::logic_error without scripts, std::out_of_range for
  /// a bad stream index — same contract as plan()).
  [[nodiscard]] std::uint64_t script_period(std::size_t stream) const;

  /// Renders the frame stream `stream` produces at `tick` (deterministic).
  [[nodiscard]] imaging::GrayImage render_frame(std::size_t stream,
                                                std::uint64_t tick) const;

  /// The first `count` frames of `stream` (frame i == render_frame(stream,
  /// i)). The plan is periodic, so distinct frames are rendered once and
  /// copied — pre-rendering a long script costs only the period.
  [[nodiscard]] std::vector<imaging::GrayImage> prerender(std::size_t stream,
                                                          std::size_t count) const;

 private:
  MultiDroneFeedConfig config_;
  /// Total ticks per script, precomputed at construction (index parallels
  /// config_.scripts) so the per-frame plan never re-sums the schedule.
  std::vector<std::uint64_t> script_periods_;
};

}  // namespace hdc::signs
