#include "rfid/transform_operator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "rfid/model.h"

namespace usp {
namespace rfid {
namespace {

WarehouseConfig SmallConfig() {
  WarehouseConfig c;
  c.width_ft = 50.0;
  c.height_ft = 50.0;
  c.shelf_rows = 5;
  c.shelf_cols = 5;
  c.num_objects = 20;
  c.seed = 31;
  return c;
}

RfidTransformOperator::Options MakeOpts(TupleDistPolicy policy) {
  RfidTransformOperator::Options o;
  o.policy = policy;
  o.filter.particles_per_object = 64;
  o.filter.seed = 41;
  return o;
}

TEST(RfidTransformTest, EmitsOneTuplePerDetectedObject) {
  const WarehouseConfig config = SmallConfig();
  WarehouseSimulator sim(config);
  RfidTransformOperator op(config.num_objects, sim.shelf_positions(),
                           config.sensing,
                           MakeOpts(TupleDistPolicy::kGaussian));
  stream::VectorCollector out;
  size_t detected = 0;
  for (int i = 0; i < 50; ++i) {
    const Reading r = sim.Step();
    detected += r.observed_objects.size();
    ASSERT_TRUE(op.ProcessReading(r, &out).ok());
  }
  EXPECT_EQ(out.tuples().size(), detected);
}

TEST(RfidTransformTest, TupleLayoutMatchesSchema) {
  const WarehouseConfig config = SmallConfig();
  WarehouseSimulator sim(config);
  RfidTransformOperator op(config.num_objects, sim.shelf_positions(),
                           config.sensing,
                           MakeOpts(TupleDistPolicy::kGaussian));
  stream::VectorCollector out;
  for (int i = 0; i < 100 && out.tuples().empty(); ++i) {
    ASSERT_TRUE(op.ProcessReading(sim.Step(), &out).ok());
  }
  ASSERT_FALSE(out.tuples().empty());
  const stream::Tuple& t = out.tuples()[0];
  const auto schema = RfidTransformOperator::OutputSchema();
  ASSERT_EQ(t.num_values(), schema->num_fields());
  EXPECT_TRUE(t.value(0).is_int());
  EXPECT_TRUE(t.value(1).is_distribution());
  EXPECT_TRUE(t.value(2).is_distribution());
  // Base tuples carry their own id as lineage.
  ASSERT_EQ(t.lineage().size(), 1u);
  EXPECT_EQ(t.lineage()[0], t.id());
  EXPECT_GT(t.timestamp(), 0);
}

class PolicyTest : public ::testing::TestWithParam<TupleDistPolicy> {};

TEST_P(PolicyTest, EmittedDistributionsAreNearTruth) {
  const WarehouseConfig config = SmallConfig();
  WarehouseSimulator sim(config);
  RfidTransformOperator op(config.num_objects, sim.shelf_positions(),
                           config.sensing, MakeOpts(GetParam()));
  stream::VectorCollector out;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(op.ProcessReading(sim.Step(), &out).ok());
  }
  ASSERT_FALSE(out.tuples().empty());
  // Average over the last quarter of emissions (filter has converged).
  double total_err = 0.0;
  size_t count = 0;
  for (size_t i = out.tuples().size() * 3 / 4; i < out.tuples().size();
       ++i) {
    const stream::Tuple& t = out.tuples()[i];
    const auto id = static_cast<uint32_t>(t.value(0).AsInt());
    const Point2 truth = sim.true_object_positions()[id];
    const double ex = t.value(1).AsDistribution()->Mean() - truth.x;
    const double ey = t.value(2).AsDistribution()->Mean() - truth.y;
    total_err += std::sqrt(ex * ex + ey * ey);
    ++count;
  }
  ASSERT_GT(count, 0u);
  EXPECT_LT(total_err / static_cast<double>(count), 12.0)
      << TupleDistPolicyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyTest,
    ::testing::Values(TupleDistPolicy::kGaussian, TupleDistPolicy::kGmmAic,
                      TupleDistPolicy::kGmmBic,
                      TupleDistPolicy::kRawParticles),
    [](const ::testing::TestParamInfo<TupleDistPolicy>& info) {
      switch (info.param) {
        case TupleDistPolicy::kGaussian:
          return std::string("Gaussian");
        case TupleDistPolicy::kGmmAic:
          return std::string("GmmAic");
        case TupleDistPolicy::kGmmBic:
          return std::string("GmmBic");
        case TupleDistPolicy::kRawParticles:
          return std::string("RawParticles");
      }
      return std::string("Unknown");
    });

TEST(RfidTransformTest, RawParticlesCostMorePayloadThanGaussian) {
  // The §4.3 space argument: raw particles inflate stream volume by one to
  // two orders of magnitude vs. the two-parameter Gaussian.
  const WarehouseConfig config = SmallConfig();
  WarehouseSimulator sim_a(config);
  WarehouseSimulator sim_b(config);
  RfidTransformOperator gauss(config.num_objects, sim_a.shelf_positions(),
                              config.sensing,
                              MakeOpts(TupleDistPolicy::kGaussian));
  RfidTransformOperator raw(config.num_objects, sim_b.shelf_positions(),
                            config.sensing,
                            MakeOpts(TupleDistPolicy::kRawParticles));
  stream::VectorCollector out_a, out_b;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(gauss.ProcessReading(sim_a.Step(), &out_a).ok());
    ASSERT_TRUE(raw.ProcessReading(sim_b.Step(), &out_b).ok());
  }
  ASSERT_GT(gauss.payload_bytes_emitted(), 0u);
  EXPECT_GT(raw.payload_bytes_emitted(),
            4 * gauss.payload_bytes_emitted());
}

TEST(RfidTransformTest, GaussianPolicyEmitsGaussians) {
  const WarehouseConfig config = SmallConfig();
  WarehouseSimulator sim(config);
  RfidTransformOperator op(config.num_objects, sim.shelf_positions(),
                           config.sensing,
                           MakeOpts(TupleDistPolicy::kGaussian));
  stream::VectorCollector out;
  for (int i = 0; i < 100 && out.tuples().empty(); ++i) {
    ASSERT_TRUE(op.ProcessReading(sim.Step(), &out).ok());
  }
  ASSERT_FALSE(out.tuples().empty());
  EXPECT_EQ(out.tuples()[0].value(1).AsDistribution()->type(),
            stats::DistType::kGaussian);
}

TEST(RfidTransformTest, BatchVariantMatchesCollectorPath) {
  const WarehouseConfig config = SmallConfig();
  WarehouseSimulator sim(config);
  RfidTransformOperator op(config.num_objects, sim.shelf_positions(),
                           config.sensing,
                           MakeOpts(TupleDistPolicy::kGaussian));
  for (int i = 0; i < 20; ++i) {
    auto batch = op.ProcessReadingBatch(sim.Step());
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) continue;
    // Layout matches the collector path: (tag, x-dist, y-dist).
    const stream::Tuple& t = batch.value()[0];
    ASSERT_EQ(t.num_values(), 3u);
    EXPECT_TRUE(t.value(0).is_int());
    EXPECT_TRUE(t.value(1).is_distribution());
    EXPECT_TRUE(t.value(2).is_distribution());
    return;
  }
  FAIL() << "no reading produced any tuples";
}

// A reader that reports a tag twice in one scan detected that object
// once, and the filter counts it once. The operator must emit one tuple
// per distinct tag, in first-seen order; a second tuple would double the
// object's weight in a downstream SUM.
TEST(RfidTransformTest, DuplicateTagReadsEmitOneTuplePerTag) {
  const WarehouseConfig config = SmallConfig();
  WarehouseSimulator sim(config);
  const auto opts = MakeOpts(TupleDistPolicy::kGaussian);
  RfidTransformOperator clean(config.num_objects, sim.shelf_positions(),
                              config.sensing, opts);
  RfidTransformOperator noisy(config.num_objects, sim.shelf_positions(),
                              config.sensing, opts);
  size_t multi_tag_readings = 0;
  for (int i = 0; i < 100; ++i) {
    const Reading r = sim.Step();
    // Every tag reported twice, the repeats in reverse: a b c c b a.
    Reading dup = r;
    dup.observed_objects.insert(dup.observed_objects.end(),
                                r.observed_objects.rbegin(),
                                r.observed_objects.rend());
    if (r.observed_objects.size() > 1) ++multi_tag_readings;
    stream::VectorCollector want, got;
    ASSERT_TRUE(clean.ProcessReading(r, &want).ok());
    ASSERT_TRUE(noisy.ProcessReading(dup, &got).ok());
    ASSERT_EQ(got.tuples().size(), r.observed_objects.size())
        << "reading " << i;
    for (size_t j = 0; j < want.tuples().size(); ++j) {
      const stream::Tuple& a = want.tuples()[j];
      const stream::Tuple& b = got.tuples()[j];
      EXPECT_EQ(b.value(0).AsInt(),
                static_cast<int64_t>(r.observed_objects[j]));
      for (size_t attr : {1, 2}) {
        EXPECT_EQ(a.value(attr).AsDistribution()->Mean(),
                  b.value(attr).AsDistribution()->Mean());
        EXPECT_EQ(a.value(attr).AsDistribution()->Variance(),
                  b.value(attr).AsDistribution()->Variance());
      }
    }
    const auto batch = noisy.ProcessReadingBatch(dup);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(clean.ProcessReadingBatch(r).ok());
    EXPECT_EQ(batch.value().size(), r.observed_objects.size());
  }
  EXPECT_GT(multi_tag_readings, 0u);
}

// A malformed reading must come back InvalidArgument and leave the filter
// exactly as it was: an operator that was fed it alongside good readings
// ends bitwise-equal to a twin that only ever saw the good ones.
class MalformedReadingTest : public ::testing::Test {
 protected:
  MalformedReadingTest()
      : sim_(SmallConfig()),
        shelves_(sim_.shelf_positions()),
        fed_(SmallConfig().num_objects, shelves_, SmallConfig().sensing,
             MakeOpts(TupleDistPolicy::kGaussian)),
        twin_(SmallConfig().num_objects, shelves_, SmallConfig().sensing,
              MakeOpts(TupleDistPolicy::kGaussian)) {}

  // Feeds `warmup` good readings to both operators and returns the next.
  Reading WarmUp(int warmup) {
    stream::VectorCollector out;
    for (int i = 0; i < warmup; ++i) {
      const Reading r = sim_.Step();
      EXPECT_TRUE(fed_.ProcessReading(r, &out).ok());
      EXPECT_TRUE(twin_.ProcessReading(r, &out).ok());
    }
    return sim_.Step();
  }

  void ExpectRejected(const Reading& bad) {
    stream::VectorCollector out;
    const common::Status st = fed_.ProcessReading(bad, &out);
    EXPECT_EQ(st.code(), common::StatusCode::kInvalidArgument)
        << st.ToString();
    EXPECT_TRUE(out.tuples().empty());
    const auto batch = fed_.ProcessReadingBatch(bad);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), common::StatusCode::kInvalidArgument);
  }

  // Both operators take the same good readings; their beliefs must match.
  void ExpectStateUntouched() {
    stream::VectorCollector out;
    for (int i = 0; i < 30; ++i) {
      const Reading r = sim_.Step();
      ASSERT_TRUE(fed_.ProcessReading(r, &out).ok());
      ASSERT_TRUE(twin_.ProcessReading(r, &out).ok());
    }
    for (uint32_t id = 0; id < fed_.filter().num_objects(); ++id) {
      const ObjectBelief& a = fed_.filter().belief(id);
      const ObjectBelief& b = twin_.filter().belief(id);
      ASSERT_EQ(a.xs, b.xs) << "object " << id;
      ASSERT_EQ(a.ys, b.ys) << "object " << id;
      ASSERT_EQ(a.ws, b.ws) << "object " << id;
      ASSERT_EQ(a.detection_count, b.detection_count) << "object " << id;
    }
  }

  WarehouseSimulator sim_;
  std::vector<Point2> shelves_;
  RfidTransformOperator fed_;
  RfidTransformOperator twin_;
};

TEST_F(MalformedReadingTest, TagIdBeyondNumObjectsIsRejected) {
  Reading bad = WarmUp(40);
  bad.observed_objects.push_back(
      static_cast<uint32_t>(SmallConfig().num_objects));
  bad.observed_objects.push_back(0xffffffffu);
  ExpectRejected(bad);
  ExpectStateUntouched();
}

TEST_F(MalformedReadingTest, NonFiniteTimeIsRejected) {
  Reading bad = WarmUp(40);
  bad.time_s = std::nan("");
  ExpectRejected(bad);
  bad.time_s = std::numeric_limits<double>::infinity();
  ExpectRejected(bad);
  bad.time_s = 1e300;  // finite, but no int64 microsecond timestamp
  ExpectRejected(bad);
  ExpectStateUntouched();
}

TEST_F(MalformedReadingTest, NonFiniteReaderPoseIsRejected) {
  const Reading good = WarmUp(40);
  Reading bad = good;
  bad.reader_pos.x = std::numeric_limits<double>::infinity();
  ExpectRejected(bad);
  bad = good;
  bad.reader_pos.y = -std::numeric_limits<double>::infinity();
  ExpectRejected(bad);
  bad = good;
  bad.reader_pos.x = std::nan("");
  ExpectRejected(bad);
  bad = good;
  bad.reader_heading_rad = std::nan("");
  ExpectRejected(bad);
  ExpectStateUntouched();
}

TEST_F(MalformedReadingTest, FarAwayFiniteReaderIsDefined) {
  // Finite but far outside the warehouse: no candidate cells, no UB in
  // the cell math, and the operator keeps working.
  Reading far = WarmUp(10);
  far.reader_pos = {1e300, -1e300};
  far.observed_objects.clear();
  stream::VectorCollector out;
  EXPECT_TRUE(fed_.ProcessReading(far, &out).ok());
  EXPECT_TRUE(out.tuples().empty());
}

}  // namespace
}  // namespace rfid
}  // namespace usp
