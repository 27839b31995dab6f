// Per-layer measurement helpers shared by the traced runs, and the offline
// imaging pass.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "imaging/components.hpp"
#include "imaging/contour.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "imaging/signature.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hdc::recognition::RecognizerConfig;
using hdc::recognition::RecognizerScratch;

double us_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e3;
}

bool bit_equal(const hdc::timeseries::Series& a, const hdc::timeseries::Series& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

std::uint64_t run_imaging_pass(const hdc::recognition::SaxSignRecognizer& reference,
                               const std::vector<const hdc::imaging::GrayImage*>& frames,
                               std::vector<Metric>& out) {
  namespace im = hdc::imaging;
  const RecognizerConfig& config = reference.config();
  RecognizerScratch s;
  std::vector<double> preprocess, threshold, morphology, components, contour, signature,
      query;
  double foreground = 0.0;
  double component_count = 0.0;
  std::size_t no_silhouette = 0;
  std::uint64_t mismatches = 0;

  // Pass 0 warms the scratch buffers; pass 1 is recorded.
  for (int pass = 0; pass < 2; ++pass) {
    const bool record = pass == 1;
    for (const im::GrayImage* frame : frames) {
      std::uint64_t t = now_ns();
      const im::GrayImage* source = frame;
      if (config.dark_silhouette) {
        im::invert_into(*frame, s.working);
        source = &s.working;
      }
      if (config.preprocess_blur_sigma > 0.0) {
        im::gaussian_blur_into(*source, config.preprocess_blur_sigma, s.blurred,
                               s.blur_scratch);
        source = &s.blurred;
      }
      if (record) preprocess.push_back(us_since(t));

      t = now_ns();
      im::otsu_threshold_into(*source, s.binary);
      if (record) threshold.push_back(us_since(t));
      if (record) {
        const auto& px = s.binary.data();
        foreground += static_cast<double>(std::count(px.begin(), px.end(), 255)) /
                      static_cast<double>(std::max<std::size_t>(px.size(), 1));
      }

      t = now_ns();
      if (config.morphology_radius > 0) {
        im::close_into(s.binary, config.morphology_radius, s.morph, s.morph_a, s.morph_b);
        im::open_into(s.morph, config.morphology_radius, s.binary, s.morph_a, s.morph_b);
      }
      if (record) morphology.push_back(us_since(t));

      t = now_ns();
      im::largest_component_mask_into(s.binary, config.min_silhouette_area, s.mask,
                                      s.labeling, s.label_scratch);
      if (record) {
        components.push_back(us_since(t));
        component_count += static_cast<double>(s.labeling.components.size());
      }

      t = now_ns();
      im::trace_boundary_into(s.mask, s.contour);
      if (record) contour.push_back(us_since(t));

      s.signature.clear();
      if (!s.contour.empty()) {
        t = now_ns();
        if (config.aspect_normalize) {
          im::normalize_contour_aspect_into(s.contour, 100.0, s.normalized_contour);
          im::centroid_distance_signature_into(s.normalized_contour, config.signature_samples,
                                               s.signature, s.resampled);
        } else {
          im::centroid_distance_signature_into(s.contour, config.signature_samples,
                                               s.signature, s.resampled);
        }
        if (record) signature.push_back(us_since(t));
      } else if (record) {
        ++no_silhouette;
      }

      // Stage 7, as the recogniser runs it on frames with a usable contour.
      if (s.contour.size() >= 8 && !s.signature.empty()) {
        t = now_ns();
        const auto match = reference.database().query(s.signature, config.exact_verify,
                                                      s.query);
        if (record) query.push_back(us_since(t));
        (void)match;
      }

      if (record && !bit_equal(s.signature, reference.extract_signature(*frame))) {
        ++mismatches;
      }
    }
  }

  const double n = static_cast<double>(std::max<std::size_t>(frames.size(), 1));
  out.push_back(sample_metric("imaging.preprocess_us", preprocess, 50.0, "us"));
  out.push_back(sample_metric("imaging.threshold_us", threshold, 50.0, "us"));
  out.push_back(sample_metric("imaging.morphology_us", morphology, 50.0, "us"));
  out.push_back(sample_metric("imaging.components_us", components, 50.0, "us"));
  out.push_back(sample_metric("imaging.contour_us", contour, 50.0, "us"));
  out.push_back(sample_metric("imaging.signature_us", signature, 50.0, "us"));
  out.push_back({"imaging.foreground_frac", foreground / n, "ratio", frames.size(), ""});
  out.push_back({"imaging.components_per_frame", component_count / n, "count",
                 frames.size(), ""});
  out.push_back({"imaging.no_silhouette_frac", static_cast<double>(no_silhouette) / n,
                 "ratio", frames.size(), ""});
  out.push_back(sample_metric("recognition.query_us", query, 50.0, "us"));
  return mismatches;
}

void absent(std::vector<Metric>& out, std::string name, std::string unit, std::string why) {
  out.push_back({std::move(name), 0.0, std::move(unit), 0, "absent: " + std::move(why)});
}

void histogram_metric(std::vector<Metric>& out, const hdc::telemetry::MetricsSnapshot& snap,
                      std::string_view histogram, std::string name, double quantile) {
  const hdc::telemetry::HistogramSnapshot* h = snap.find_histogram(histogram);
  if (h == nullptr || h->count == 0) {
    absent(out, std::move(name), "us",
           "histogram " + std::string(histogram) + " not recorded");
    return;
  }
  out.push_back({std::move(name), static_cast<double>(h->percentile(quantile)) / 1e3, "us",
                 static_cast<std::size_t>(h->count), ""});
}

void add_perception_shape(std::vector<Metric>& out, const hdc::telemetry::MetricsSnapshot& snap,
                          std::uint64_t delivered, const std::vector<std::uint64_t>& shard_popped) {
  const hdc::telemetry::HistogramSnapshot* h = snap.find_histogram("perception_recognize_ns");
  if (h == nullptr || h->count == 0) {
    absent(out, "perception.frames_per_window", "count",
           "histogram perception_recognize_ns not recorded");
  } else {
    out.push_back({"perception.frames_per_window",
                   static_cast<double>(delivered) / static_cast<double>(h->count), "count",
                   static_cast<std::size_t>(h->count), ""});
  }
  if (shard_popped.empty()) {
    absent(out, "perception.shard_frames_max_over_min", "ratio", "no shard gauges");
    return;
  }
  const auto [lo, hi] = std::minmax_element(shard_popped.begin(), shard_popped.end());
  out.push_back({"perception.shard_frames_max_over_min",
                 static_cast<double>(*hi) / static_cast<double>(std::max<std::uint64_t>(*lo, 1)),
                 "ratio", shard_popped.size(), ""});
}

void add_trace_overhead(std::vector<Metric>& out, double plain_cpu, double traced_cpu,
                        double plain_p50, double traced_p50) {
  out.push_back({"telemetry.trace_overhead_pct", (traced_cpu / plain_cpu - 1.0) * 100.0, "%", 0,
                 "CPU per item, traced vs untraced pass"});
  if (plain_p50 <= 0.0) {
    absent(out, "telemetry.trace_overhead_p50_pct", "%",
           "no median latency that service time sets on this workload");
    return;
  }
  out.push_back({"telemetry.trace_overhead_p50_pct", (traced_p50 / plain_p50 - 1.0) * 100.0,
                 "%", 0, "median latency, traced vs untraced pass"});
}

Metric setup_metric(const std::vector<double>& samples) {
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  char note[96];
  std::snprintf(note, sizeof(note), "CPU seconds, median of set-ups in %.4g..%.4g", *lo, *hi);
  return {"setup_s", median(samples), "s", samples.size(), note};
}

Metric sample_metric(std::string name, const std::vector<double>& values, double pct,
                     std::string unit) {
  Metric m{std::move(name), percentile(values, pct), std::move(unit), values.size(), ""};
  if (values.empty()) {
    m.note = "absent: no samples";
  } else if (pct > 50.0 && !percentile_supported(values.size(), pct)) {
    char note[96];
    std::snprintf(note, sizeof(note),
                  "fewer than 10 samples beyond p%g; the sample supports p%g", pct,
                  highest_supported_percentile(values.size()));
    m.note = note;
  }
  return m;
}

std::vector<double> stage_durations_us(const std::vector<hdc::telemetry::TraceEvent>& events,
                                       hdc::telemetry::TraceStage stage) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.stage == stage && e.t_end_ns >= e.t_start_ns) {
      out.push_back(static_cast<double>(e.t_end_ns - e.t_start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<hdc::telemetry::TraceEvent> last_window(
    std::vector<hdc::telemetry::TraceEvent> events, std::uint64_t window_ns) {
  // Whole traces only: a trace is kept when its first event is in the window.
  std::unordered_map<std::uint64_t, std::uint64_t> first_start;
  std::uint64_t latest = 0;
  for (const auto& e : events) {
    latest = std::max(latest, e.t_start_ns);
    auto [it, inserted] = first_start.try_emplace(e.trace_id, e.t_start_ns);
    if (!inserted) it->second = std::min(it->second, e.t_start_ns);
  }
  const std::uint64_t from = latest > window_ns ? latest - window_ns : 0;
  std::erase_if(events, [&](const auto& e) { return first_start[e.trace_id] < from; });
  return events;
}

}  // namespace perfbench
