#include "rfid/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace usp {
namespace rfid {
namespace {

TEST(SensingModelTest, CloserIsMoreLikely) {
  SensingModel s;
  const Point2 reader{0.0, 0.0};
  const double near_p = s.DetectionProbability(reader, 0.0, {2.0, 0.0});
  const double far_p = s.DetectionProbability(reader, 0.0, {20.0, 0.0});
  EXPECT_GT(near_p, far_p);
  EXPECT_GT(near_p, 0.3);
}

TEST(SensingModelTest, ZeroBeyondHardRange) {
  SensingModel s;
  EXPECT_EQ(s.DetectionProbability({0, 0}, 0.0, {s.hard_range + 1.0, 0.0}),
            0.0);
}

TEST(SensingModelTest, OnAxisBeatsBehind) {
  SensingModel s;
  const Point2 reader{0.0, 0.0};
  // Heading +x: a tag at +x is in front, at -x is behind.
  const double front = s.DetectionProbability(reader, 0.0, {5.0, 0.0});
  const double behind = s.DetectionProbability(reader, 0.0, {-5.0, 0.0});
  EXPECT_GT(front, behind);
}

TEST(SensingModelTest, ProbabilityIsInUnitInterval) {
  SensingModel s;
  for (double x = -30.0; x <= 30.0; x += 3.0) {
    for (double y = -30.0; y <= 30.0; y += 3.0) {
      const double p = s.DetectionProbability({0, 0}, 0.7, {x, y});
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

// The logistic model written out per tag, cos/sin of the heading inside:
// the form the prepared pose hoists.
double ReferenceProbability(const SensingModel& s, const Point2& reader,
                            double heading, const Point2& tag) {
  const double d = Distance(reader, tag);
  if (d > s.hard_range) return 0.0;
  const double range_term =
      1.0 / (1.0 + std::exp(s.range_steepness * (d - s.range_midpoint)));
  double angle_term = 1.0;
  if (d > 1e-9) {
    const double cos_theta = ((tag.x - reader.x) * std::cos(heading) +
                              (tag.y - reader.y) * std::sin(heading)) /
                             d;
    angle_term =
        1.0 / (1.0 + std::exp(-s.fov_steepness * (cos_theta - s.fov_cos)));
  }
  return s.max_read_prob * range_term * angle_term;
}

TEST(SensingModelTest, PreparedPoseIsBitwiseDetectionProbability) {
  SensingModel s;
  const Point2 reader{37.25, 12.5};
  const double pi = std::acos(-1.0);
  size_t at_hard_range = 0, at_reader = 0;
  for (const double heading : {0.0, pi, 0.7, -2.3}) {
    const SensingPose pose = s.Pose(reader, heading);
    std::vector<Point2> tags = {
        reader,                                   // d = 0
        {reader.x + s.hard_range, reader.y},      // d = hard_range exactly
        {reader.x, reader.y - s.hard_range},      // d = hard_range exactly
        {reader.x + s.hard_range + 1e-9, reader.y}};
    for (double dx = -30.0; dx <= 30.0; dx += 1.75) {
      for (double dy = -30.0; dy <= 30.0; dy += 2.5) {
        tags.push_back({reader.x + dx, reader.y + dy});
      }
    }
    for (const Point2& tag : tags) {
      const double d = Distance(reader, tag);
      at_hard_range += d == s.hard_range;
      at_reader += d == 0.0;
      const double want = ReferenceProbability(s, reader, heading, tag);
      const double by_pose = pose.DetectionProbability(tag);
      const double by_model = s.DetectionProbability(reader, heading, tag);
      ASSERT_EQ(std::memcmp(&by_pose, &want, sizeof(want)), 0)
          << "tag (" << tag.x << ", " << tag.y << ") heading " << heading;
      ASSERT_EQ(std::memcmp(&by_model, &want, sizeof(want)), 0)
          << "tag (" << tag.x << ", " << tag.y << ") heading " << heading;
    }
  }
  EXPECT_GE(at_hard_range, 8u);  // two exact-range tags per heading
  EXPECT_GE(at_reader, 4u);
}

WarehouseConfig SmallConfig() {
  WarehouseConfig c;
  c.width_ft = 50.0;
  c.height_ft = 50.0;
  c.shelf_rows = 5;
  c.shelf_cols = 5;
  c.num_objects = 40;
  c.seed = 7;
  return c;
}

TEST(WarehouseSimulatorTest, GeometryMatchesConfig) {
  const WarehouseSimulator sim(SmallConfig());
  EXPECT_EQ(sim.num_shelves(), 25u);
  EXPECT_EQ(sim.true_object_positions().size(), 40u);
  for (const Point2& s : sim.shelf_positions()) {
    EXPECT_GE(s.x, 0.0);
    EXPECT_LE(s.x, 50.0);
    EXPECT_GE(s.y, 0.0);
    EXPECT_LE(s.y, 50.0);
  }
}

TEST(WarehouseSimulatorTest, StepAdvancesTime) {
  WarehouseSimulator sim(SmallConfig());
  const Reading r1 = sim.Step();
  const Reading r2 = sim.Step();
  EXPECT_GT(r2.time_s, r1.time_s);
  EXPECT_NEAR(r2.time_s - r1.time_s, 0.5, 1e-9);
}

TEST(WarehouseSimulatorTest, DeterministicForSeed) {
  WarehouseSimulator a(SmallConfig());
  WarehouseSimulator b(SmallConfig());
  for (int i = 0; i < 20; ++i) {
    const Reading ra = a.Step();
    const Reading rb = b.Step();
    EXPECT_EQ(ra.observed_objects, rb.observed_objects);
    EXPECT_EQ(ra.observed_shelves, rb.observed_shelves);
  }
}

TEST(WarehouseSimulatorTest, ObservationsAreWithinHardRange) {
  WarehouseConfig c = SmallConfig();
  WarehouseSimulator sim(c);
  for (int i = 0; i < 100; ++i) {
    const Reading r = sim.Step();
    for (uint32_t id : r.observed_objects) {
      ASSERT_LT(id, c.num_objects);
      EXPECT_LE(Distance(r.reader_pos, sim.true_object_positions()[id]),
                c.sensing.hard_range + 1e-9);
    }
  }
}

TEST(WarehouseSimulatorTest, ReaderCoversTheAreaOverTime) {
  WarehouseSimulator sim(SmallConfig());
  double min_x = 1e9, max_x = -1e9, min_y = 1e9, max_y = -1e9;
  for (int i = 0; i < 1000; ++i) {
    const Reading r = sim.Step();
    min_x = std::min(min_x, r.reader_pos.x);
    max_x = std::max(max_x, r.reader_pos.x);
    min_y = std::min(min_y, r.reader_pos.y);
    max_y = std::max(max_y, r.reader_pos.y);
  }
  EXPECT_LT(min_x, 5.0);
  EXPECT_GT(max_x, 45.0);
  EXPECT_GT(max_y - min_y, 20.0);
}

TEST(WarehouseSimulatorTest, ObjectsMoveOccasionally) {
  WarehouseConfig c = SmallConfig();
  c.object_move_prob_per_scan = 0.05;  // high rate for the test
  WarehouseSimulator sim(c);
  std::vector<uint32_t> moved;
  int total_moves = 0;
  for (int i = 0; i < 200; ++i) {
    moved.clear();
    sim.Step(&moved);
    total_moves += static_cast<int>(moved.size());
  }
  // E[moves] = 200 * 0.05 * 40 = 400; even 3-sigma fluctuation stays > 0.
  EXPECT_GT(total_moves, 100);
  EXPECT_LT(total_moves, 900);
}

TEST(WarehouseSimulatorTest, MostObjectsEventuallyObserved) {
  WarehouseConfig c = SmallConfig();
  c.num_objects = 30;
  WarehouseSimulator sim(c);
  std::vector<bool> seen(c.num_objects, false);
  for (int i = 0; i < 2000; ++i) {
    for (uint32_t id : sim.Step().observed_objects) seen[id] = true;
  }
  int count = 0;
  for (bool s : seen) count += s ? 1 : 0;
  EXPECT_GT(count, 25);
}

TEST(DistanceTest, Euclidean) {
  EXPECT_NEAR(Distance({0, 0}, {3, 4}), 5.0, 1e-12);
  EXPECT_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace rfid
}  // namespace usp
