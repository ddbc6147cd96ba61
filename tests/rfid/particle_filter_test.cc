#include "rfid/particle_filter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "rfid/model.h"
#include "stats/simd/dispatch.h"

namespace usp {
namespace rfid {
namespace {

WarehouseConfig SmallConfig(size_t objects = 30) {
  WarehouseConfig c;
  c.width_ft = 50.0;
  c.height_ft = 50.0;
  c.shelf_rows = 5;
  c.shelf_cols = 5;
  c.num_objects = objects;
  c.object_move_prob_per_scan = 0.0;  // static world unless stated
  c.seed = 17;
  return c;
}

FilterOptions DefaultOpts() {
  FilterOptions o;
  o.particles_per_object = 100;
  o.seed = 23;
  return o;
}

// Run simulator + filter for `steps` scans; returns final mean error.
double RunFactored(const WarehouseConfig& config, const FilterOptions& opts,
                   int steps, FactoredParticleFilter* filter_out = nullptr) {
  WarehouseSimulator sim(config);
  FactoredParticleFilter filter(config.num_objects, sim.shelf_positions(),
                                config.sensing, opts);
  for (int i = 0; i < steps; ++i) {
    filter.ProcessReading(sim.Step());
  }
  const double err = filter.MeanErrorAgainst(sim.true_object_positions());
  if (filter_out != nullptr) {
    *filter_out = std::move(filter);
  }
  return err;
}

TEST(ObjectBeliefTest, MeanAndSpread) {
  ObjectBelief b;
  b.xs = {0.0, 2.0};
  b.ys = {0.0, 0.0};
  b.ws = {0.5, 0.5};
  EXPECT_NEAR(b.Mean().x, 1.0, 1e-12);
  EXPECT_NEAR(b.Mean().y, 0.0, 1e-12);
  EXPECT_NEAR(b.Spread(), 1.0, 1e-12);
  EXPECT_NEAR(b.EffectiveSampleSize(), 2.0, 1e-12);
}

TEST(FactoredFilterTest, ErrorDecreasesBelowPrior) {
  const WarehouseConfig config = SmallConfig();
  // Prior error: mean distance from a random shelf to the true shelf, on
  // the order of half the warehouse diameter (~25 ft).
  const double err = RunFactored(config, DefaultOpts(), 800);
  EXPECT_LT(err, 6.0);
  EXPECT_GT(err, 0.0);
}

TEST(FactoredFilterTest, MoreParticlesMoreAccurate) {
  const WarehouseConfig config = SmallConfig();
  FilterOptions few = DefaultOpts();
  few.particles_per_object = 12;
  few.use_compression = false;
  FilterOptions many = DefaultOpts();
  many.particles_per_object = 200;
  many.use_compression = false;
  double err_few = 0.0, err_many = 0.0;
  // Average over seeds to damp Monte Carlo noise.
  for (uint64_t s = 0; s < 3; ++s) {
    few.seed = many.seed = 100 + s;
    err_few += RunFactored(config, few, 600);
    err_many += RunFactored(config, many, 600);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(FactoredFilterTest, SpatialIndexShrinksCandidateSet) {
  const WarehouseConfig config = SmallConfig(100);
  WarehouseSimulator sim(config);
  FilterOptions with_idx = DefaultOpts();
  with_idx.use_spatial_index = true;
  FilterOptions no_idx = DefaultOpts();
  no_idx.use_spatial_index = false;
  FactoredParticleFilter f1(config.num_objects, sim.shelf_positions(),
                            config.sensing, with_idx);
  FactoredParticleFilter f2(config.num_objects, sim.shelf_positions(),
                            config.sensing, no_idx);
  size_t cand_with = 0, cand_without = 0;
  for (int i = 0; i < 50; ++i) {
    const Reading r = sim.Step();
    cand_with += f1.ProcessReading(r);
    cand_without += f2.ProcessReading(r);
  }
  EXPECT_LT(cand_with, cand_without);
  EXPECT_EQ(cand_without, 50u * 100u);
}

TEST(FactoredFilterTest, CompressionReducesParticleCount) {
  const WarehouseConfig config = SmallConfig();
  FilterOptions with_c = DefaultOpts();
  with_c.use_compression = true;
  FactoredParticleFilter filter(config.num_objects, {{10.0, 10.0}},
                                config.sensing, with_c);
  // With compression the initial representation is already compact.
  EXPECT_LE(filter.TotalParticles(),
            config.num_objects * with_c.compressed_particles);

  FilterOptions no_c = DefaultOpts();
  no_c.use_compression = false;
  FactoredParticleFilter full(config.num_objects, {{10.0, 10.0}},
                              config.sensing, no_c);
  EXPECT_EQ(full.TotalParticles(),
            config.num_objects * no_c.particles_per_object);
}

TEST(FactoredFilterTest, CompressedBeliefsStayAccurate) {
  const WarehouseConfig config = SmallConfig();
  FilterOptions with_c = DefaultOpts();
  with_c.use_compression = true;
  FilterOptions no_c = DefaultOpts();
  no_c.use_compression = false;
  double err_c = 0.0, err_n = 0.0;
  for (uint64_t s = 0; s < 3; ++s) {
    with_c.seed = no_c.seed = 55 + s;
    err_c += RunFactored(config, with_c, 600);
    err_n += RunFactored(config, no_c, 600);
  }
  // Compression may cost a little accuracy but not a blowup.
  EXPECT_LT(err_c, err_n + 3.0);
}

TEST(FactoredFilterTest, RecoversAfterObjectMoves) {
  WarehouseConfig config = SmallConfig();
  config.object_move_prob_per_scan = 0.01;
  const double err = RunFactored(config, DefaultOpts(), 1500);
  // Harder than the static world; still far below the ~25 ft prior.
  EXPECT_LT(err, 12.0);
}

TEST(FactoredFilterTest, BeliefAccessors) {
  const WarehouseConfig config = SmallConfig(5);
  WarehouseSimulator sim(config);
  FactoredParticleFilter filter(5, sim.shelf_positions(), config.sensing,
                                DefaultOpts());
  EXPECT_EQ(filter.num_objects(), 5u);
  for (uint32_t id = 0; id < 5; ++id) {
    const ObjectBelief& b = filter.belief(id);
    EXPECT_GT(b.size(), 0u);
    const Point2 m = filter.EstimateMean(id);
    EXPECT_GE(m.x, -10.0);
    EXPECT_LE(m.x, 60.0);
  }
}

// Runs 200 readings under the currently dispatched SIMD tier and returns
// every belief cloud, concatenated as (xs, ys, ws).
std::vector<double> BeliefsAfter200Readings() {
  WarehouseConfig config = SmallConfig(60);
  config.object_move_prob_per_scan = 0.01;
  WarehouseSimulator sim(config);
  FactoredParticleFilter filter(config.num_objects, sim.shelf_positions(),
                                config.sensing, DefaultOpts());
  for (int i = 0; i < 200; ++i) filter.ProcessReading(sim.Step());
  std::vector<double> all;
  for (uint32_t id = 0; id < filter.num_objects(); ++id) {
    const ObjectBelief& b = filter.belief(id);
    all.insert(all.end(), b.xs.begin(), b.xs.end());
    all.insert(all.end(), b.ys.begin(), b.ys.end());
    all.insert(all.end(), b.ws.begin(), b.ws.end());
  }
  return all;
}

TEST(FactoredFilterTest, BeliefsBitwiseIdenticalAcrossSimdTiers) {
  std::vector<double> scalar;
  {
    stats::simd::ScopedForceTier force(stats::simd::Tier::kScalar);
    scalar = BeliefsAfter200Readings();
  }
  const std::vector<double> active = BeliefsAfter200Readings();
  ASSERT_EQ(scalar.size(), active.size());
  ASSERT_GT(scalar.size(), 0u);
  EXPECT_EQ(std::memcmp(scalar.data(), active.data(),
                        scalar.size() * sizeof(double)),
            0)
      << "active tier " << stats::simd::ActiveIsaName();
}

TEST(FactoredFilterTest, ValidateReadingRejectsMalformedReadings) {
  const WarehouseConfig config = SmallConfig(5);
  WarehouseSimulator sim(config);
  FactoredParticleFilter filter(5, sim.shelf_positions(), config.sensing,
                                DefaultOpts());
  const Reading good = sim.Step();
  EXPECT_TRUE(filter.ValidateReading(good).ok());
  Reading bad_tag = good;
  bad_tag.observed_objects.push_back(5);
  EXPECT_EQ(filter.ValidateReading(bad_tag).code(),
            common::StatusCode::kInvalidArgument);
  Reading bad_heading = good;
  bad_heading.reader_heading_rad = std::nan("");
  EXPECT_EQ(filter.ValidateReading(bad_heading).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(JointFilterTest, TracksSmallWorld) {
  WarehouseConfig config = SmallConfig(5);
  config.num_objects = 5;
  WarehouseSimulator sim(config);
  FilterOptions opts = DefaultOpts();
  opts.particles_per_object = 300;  // joint particles
  JointParticleFilter filter(5, sim.shelf_positions(), config.sensing,
                             opts);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(filter.ProcessReading(sim.Step()).ok());
  }
  const double err = filter.MeanErrorAgainst(sim.true_object_positions());
  // The joint filter is crude but must beat the ~25 ft uniform prior.
  EXPECT_LT(err, 15.0);
}

TEST(JointFilterTest, FactoredBeatsJointAtSameBudget) {
  // The paper's §4.1 point: factorization wins at scale. With 30 objects
  // and equal particle budgets the joint filter degenerates.
  WarehouseConfig config = SmallConfig(30);
  WarehouseSimulator sim_a(config);
  WarehouseSimulator sim_b(config);
  FilterOptions opts = DefaultOpts();
  opts.particles_per_object = 100;
  FactoredParticleFilter factored(30, sim_a.shelf_positions(),
                                  config.sensing, opts);
  JointParticleFilter joint(30, sim_b.shelf_positions(), config.sensing,
                            opts);
  for (int i = 0; i < 400; ++i) {
    factored.ProcessReading(sim_a.Step());
    ASSERT_TRUE(joint.ProcessReading(sim_b.Step()).ok());
  }
  const double err_f =
      factored.MeanErrorAgainst(sim_a.true_object_positions());
  const double err_j = joint.MeanErrorAgainst(sim_b.true_object_positions());
  EXPECT_LT(err_f, err_j);
}

TEST(JointFilterTest, RejectsMalformedReadingsWithoutStateChange) {
  // A tag id past the tracked objects once wrote out of bounds; it and a
  // non-finite time must be refused before any particle, weight or clock
  // moves — a twin filter that never saw them stays bitwise in step.
  const WarehouseConfig config = SmallConfig(5);
  WarehouseSimulator sim(config);
  FilterOptions opts = DefaultOpts();
  opts.particles_per_object = 50;
  JointParticleFilter fed(5, sim.shelf_positions(), config.sensing, opts);
  JointParticleFilter twin(5, sim.shelf_positions(), config.sensing, opts);
  const Reading first = sim.Step();
  ASSERT_TRUE(fed.ProcessReading(first).ok());
  ASSERT_TRUE(twin.ProcessReading(first).ok());

  const Reading next = sim.Step();
  Reading bad_tag = next;
  bad_tag.observed_objects.push_back(100000);
  EXPECT_EQ(fed.ProcessReading(bad_tag).code(),
            common::StatusCode::kInvalidArgument);
  Reading bad_time = next;
  bad_time.time_s = std::nan("");
  EXPECT_EQ(fed.ProcessReading(bad_time).code(),
            common::StatusCode::kInvalidArgument);

  ASSERT_TRUE(fed.ProcessReading(next).ok());
  ASSERT_TRUE(twin.ProcessReading(next).ok());
  for (uint32_t id = 0; id < 5; ++id) {
    EXPECT_EQ(fed.EstimateMean(id).x, twin.EstimateMean(id).x) << id;
    EXPECT_EQ(fed.EstimateMean(id).y, twin.EstimateMean(id).y) << id;
  }
}

}  // namespace
}  // namespace rfid
}  // namespace usp
