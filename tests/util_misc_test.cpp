#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/statistics.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace hdc::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW((void)rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.15);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(17);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(rng.poisson(2.5));
  for (int i = 0; i < 20000; ++i) large.add(rng.poisson(50.0));
  EXPECT_NEAR(small.mean(), 2.5, 0.1);
  EXPECT_NEAR(large.mean(), 50.0, 0.5);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
  EXPECT_THROW((void)rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW((void)rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)rng.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // The child stream should not replay the parent's output.
  Rng parent2(31);
  (void)parent2.next();  // same state advance as fork consumed
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (child.next() == parent2.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> xs = {1.0, 2.0, 2.0, 3.5, -1.0, 0.5};
  double sum = 0.0;
  for (double x : xs) {
    stats.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.5);
  EXPECT_EQ(stats.count(), xs.size());
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(37);
  RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(3.0, 2.0);
    if (i % 2 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_TRUE(std::isnan(stats.min()));
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
}

TEST(SimClock, TickArithmetic) {
  SimClock clock(0.02);
  EXPECT_DOUBLE_EQ(clock.seconds(), 0.0);
  clock.advance(50);
  EXPECT_DOUBLE_EQ(clock.seconds(), 1.0);
  EXPECT_EQ(clock.ticks(), 50u);
  EXPECT_EQ(clock.ticks_for(1.0), 50u);
  EXPECT_EQ(clock.ticks_for(0.001), 1u);   // rounds up, at least 1
  EXPECT_EQ(clock.ticks_for(0.0), 0u);
  EXPECT_THROW(SimClock(0.0), std::invalid_argument);
}

TEST(SimTimer, ArmExpireCancel) {
  SimTimer timer;
  EXPECT_FALSE(timer.armed());
  timer.start(10.0, 5.0);
  EXPECT_TRUE(timer.armed());
  EXPECT_FALSE(timer.expired(14.9));
  EXPECT_TRUE(timer.expired(15.0));
  EXPECT_NEAR(timer.remaining(12.0), 3.0, 1e-12);
  timer.cancel();
  EXPECT_FALSE(timer.expired(100.0));
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(watch.elapsed_seconds(), 0.0);
  EXPECT_GT(watch.elapsed_us(), watch.elapsed_ms());
}

TEST(TextTable, AlignsAndValidatesWidth) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(AsciiPlot, ProducesRowsAndStats) {
  std::vector<double> wave;
  for (int i = 0; i < 200; ++i) wave.push_back(std::sin(i * 0.1));
  const std::string plot = ascii_plot(wave, 8, 60);
  EXPECT_NE(plot.find('#'), std::string::npos);
  EXPECT_NE(plot.find("n=200"), std::string::npos);
  EXPECT_EQ(ascii_plot({}, 8, 60), "(empty series)\n");
}

}  // namespace
}  // namespace hdc::util
