#include "radar/experiment.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace usp {
namespace radar {
namespace {

// A shortened variant of the Table 1 config so the test stays fast: fewer
// gates, shorter trace. The bench binary runs the full configuration.
Table1Config FastConfig() {
  Table1Config c;
  c.duration_s = 20.0;
  c.num_gates = 512;
  c.num_vortices = 3;
  c.seed = 99;
  return c;
}

// Every case runs FastConfig, so each distinct row or sweep is computed
// once per process and shared between the cases that check it: a run
// simulates the whole seeded pulse stream, which costs seconds, and
// repeating an identical deterministic run checks nothing new.
const common::Result<Table1Row>& Row(size_t averaging_size) {
  static std::map<size_t, common::Result<Table1Row>> memo;
  auto it = memo.find(averaging_size);
  if (it == memo.end()) {
    it = memo.emplace(averaging_size,
                      RunTable1Row(FastConfig(), averaging_size))
             .first;
  }
  return it->second;
}

const common::Result<std::vector<Table1Row>>& Sweep(
    const std::vector<size_t>& sizes) {
  static std::map<std::vector<size_t>,
                  common::Result<std::vector<Table1Row>>>
      memo;
  auto it = memo.find(sizes);
  if (it == memo.end()) {
    it = memo.emplace(sizes, RunTable1Sweep(FastConfig(), sizes)).first;
  }
  return it->second;
}

TEST(Table1ExperimentTest, RejectsDegenerateAveraging) {
  EXPECT_FALSE(RunTable1Row(FastConfig(), 1).ok());
}

TEST(Table1ExperimentTest, WindFieldHasRequestedVortices) {
  const WindField wind = MakeTornadicWindField(FastConfig());
  EXPECT_EQ(wind.vortices.size(), 3u);
  for (const Vortex& v : wind.vortices) {
    const double r = std::hypot(v.x_m, v.y_m);
    EXPECT_GT(r, 10000.0);
    EXPECT_LT(r, 45000.0);
  }
}

TEST(Table1ExperimentTest, FineAveragingDetectsTornados) {
  const auto& row = Row(40);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_GT(row.value().avg_reported_tornados, 1.0);
  EXPECT_LT(row.value().avg_false_negatives, 2.0);
  EXPECT_GT(row.value().moment_data_mb, 0.0);
}

TEST(Table1ExperimentTest, AggressiveAveragingMissesTornados) {
  const auto& row = Row(1000);
  ASSERT_TRUE(row.ok());
  EXPECT_LT(row.value().avg_reported_tornados, 1.0);
  EXPECT_GT(row.value().avg_false_negatives, 1.5);
}

TEST(Table1ExperimentTest, MomentDataSizeShrinksWithAveraging) {
  const auto& sweep = Sweep({40, 200, 1000});
  ASSERT_TRUE(sweep.ok());
  const auto& rows = sweep.value();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_GT(rows[0].moment_data_mb, rows[1].moment_data_mb);
  EXPECT_GT(rows[1].moment_data_mb, rows[2].moment_data_mb);
  // Size scales ~ 1/N.
  EXPECT_NEAR(rows[0].moment_data_mb / rows[2].moment_data_mb, 25.0, 5.0);
}

TEST(Table1ExperimentTest, DetectionCountMonotoneNonIncreasing) {
  const auto& sweep = Sweep({40, 100, 500, 1000});
  ASSERT_TRUE(sweep.ok());
  const auto& rows = sweep.value();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].avg_reported_tornados,
              rows[i - 1].avg_reported_tornados + 0.5)
        << "N=" << rows[i].averaging_size;
  }
  // The cliff: by N=1000 detection has collapsed relative to N=40.
  EXPECT_LT(rows.back().avg_reported_tornados,
            0.5 * std::max(rows.front().avg_reported_tornados, 1.0));
}

TEST(Table1ExperimentTest, FalseNegativesRiseWithAveraging) {
  const auto& sweep = Sweep({40, 1000});
  ASSERT_TRUE(sweep.ok());
  EXPECT_GT(sweep.value()[1].avg_false_negatives,
            sweep.value()[0].avg_false_negatives);
}

// A sweep feeds one simulated pulse stream to every averaging size at
// once; each of its rows must be bitwise what a single-size run computes.
// detection_seconds is a wall-clock timing, not a result.
TEST(Table1ExperimentTest, SweepRowsMatchSingleRowsBitwise) {
  const std::vector<size_t> sizes = {40, 1000};
  const auto& sweep = Sweep(sizes);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep.value().size(), sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto& single = Row(sizes[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    const Table1Row& a = sweep.value()[i];
    const Table1Row& b = single.value();
    EXPECT_EQ(a.averaging_size, b.averaging_size);
    EXPECT_EQ(a.moment_data_mb, b.moment_data_mb) << "N=" << sizes[i];
    EXPECT_EQ(a.avg_reported_tornados, b.avg_reported_tornados)
        << "N=" << sizes[i];
    EXPECT_EQ(a.avg_false_negatives, b.avg_false_negatives)
        << "N=" << sizes[i];
    EXPECT_EQ(a.avg_detection_probability, b.avg_detection_probability)
        << "N=" << sizes[i];
  }
}

TEST(Table1ExperimentTest, SweepRejectsDegenerateAveragingSize) {
  EXPECT_FALSE(RunTable1Sweep(FastConfig(), {40, 1}).ok());
}

}  // namespace
}  // namespace radar
}  // namespace usp
