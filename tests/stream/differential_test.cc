// Randomized differential harness: 50+ seeded random Q1-style plans (see
// seeded_plan_generator.h), each executed along independent physical
// paths that the planner promises are equivalent —
//
//   1. naive (exact per-window) vs. paned (pane-incremental) aggregation,
//      bitwise for tumbling windows (the planner's exactness claim),
//      within numeric tolerance for sliding ones (different but valid
//      floating-point association);
//   2. 1 shard vs. 2 and 4 shards (and a 2-lane ingest variant): the
//      result SET must be bitwise identical — every group runs wholly on
//      one shard over the same tuple subsequence, only merge order may
//      differ.
//
// A second, exhaustive check pins the planner's tumbling-window decision:
// for every aggregate (SUM and AVG under each SumStrategyKind, MAX, MIN,
// COUNT) the pane path must reproduce the naive path's rows bit for bit —
// values, lineage, HAVING decisions and row order — at 1 and 4 shards. A
// third pins slot sharing on sliding windows: the SUM and AVG columns of a
// SUM+AVG plan equal the SUM-only and AVG-only plans bit for bit.
//
// On failure the offending seed + configuration is printed for replay:
//   stream_differential_test --gtest_filter='*Seed*' and the seed shown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/planner.h"
#include "query/query.h"
#include "seeded_plan_generator.h"
#include "stats/gaussian_mixture.h"
#include "stats/histogram.h"
#include "stats/simd/dispatch.h"
#include "uncertain/aggregates.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace stream {
namespace {

using query::PlannerOptions;
using gen::GeneratedPlan;
using gen::GeneratePlan;

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kNumSeeds = 56;

// ---- result canonicalisation ---------------------------------------------

/// One output row, split into exact fields (timestamp, group key) and
/// numeric fields (aggregate means/variances) so the comparison can be
/// bitwise or tolerance-based per context.
struct Row {
  int64_t ts = 0;
  std::string key;
  std::vector<double> numbers;

  bool operator<(const Row& other) const {
    if (ts != other.ts) return ts < other.ts;
    return key < other.key;
  }
};

std::vector<Row> Rows(const TupleBatch& batch) {
  std::vector<Row> rows;
  rows.reserve(batch.size());
  for (const Tuple& t : batch) {
    Row row;
    row.ts = t.timestamp();
    row.key = t.value(0).AsString();
    for (size_t i = 1; i < t.num_values(); ++i) {
      const Value& v = t.value(i);
      if (v.is_distribution()) {
        row.numbers.push_back(v.AsDistribution()->Mean());
        row.numbers.push_back(v.AsDistribution()->Variance());
      } else if (v.is_numeric()) {
        row.numbers.push_back(v.AsDouble());
      }
    }
    rows.push_back(std::move(row));
  }
  // Canonical order: sharded merges only promise set identity plus
  // timestamp order (equal-ts tie order follows shard interleaving).
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b,
                     double rel_tolerance) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ts, b[i].ts) << "row " << i;
    ASSERT_EQ(a[i].key, b[i].key) << "row " << i;
    ASSERT_EQ(a[i].numbers.size(), b[i].numbers.size()) << "row " << i;
    for (size_t j = 0; j < a[i].numbers.size(); ++j) {
      const double x = a[i].numbers[j];
      const double y = b[i].numbers[j];
      if (rel_tolerance == 0.0) {
        ASSERT_EQ(x, y) << "row " << i << " number " << j;
      } else {
        const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
        ASSERT_NEAR(x, y, rel_tolerance * scale)
            << "row " << i << " number " << j;
      }
    }
  }
}

common::Result<TupleBatch> Run(const GeneratedPlan& plan,
                               const PlannerOptions& opts) {
  auto compiled_or = plan.Build().Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto src = compiled->source("src");
  for (const TupleBatch& batch : plan.MakeInput()) {
    USP_RETURN_NOT_OK(compiled->PushBatch(src, batch));
  }
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("out"));
}

PlannerOptions BaseOptions() {
  PlannerOptions opts;
  opts.num_shards = 1;
  return opts;
}

void RunSeed(uint64_t seed) {
  const GeneratedPlan plan = GeneratePlan(seed);
  SCOPED_TRACE("replay: " + plan.ToString());

  // Baseline: single shard, planner-chosen (pane-incremental) path.
  auto base_or = Run(plan, BaseOptions());
  ASSERT_TRUE(base_or.ok()) << base_or.status().ToString();
  const std::vector<Row> base = Rows(base_or.value());
  ASSERT_FALSE(base.empty()) << "degenerate plan produced no output";

  // (1) naive vs. paned on one shard.
  PlannerOptions naive_opts = BaseOptions();
  naive_opts.aggregate_path = PlannerOptions::AggregatePath::kForceNaive;
  auto naive_or = Run(plan, naive_opts);
  ASSERT_TRUE(naive_or.ok()) << naive_or.status().ToString();
  const bool tumbling = plan.window.slide_us == plan.window.size_us;
  // Tumbling: the paned operator delegates to the exact per-window
  // kernels — bitwise. Sliding: same math, different FP association —
  // tight tolerance.
  ExpectRowsEqual(Rows(naive_or.value()), base, tumbling ? 0.0 : 1e-9);

  // (2) shard-count invariance: 1 vs 2 vs 4 shards, bitwise as sets
  // (every group runs wholly on one shard over the same subsequence).
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    PlannerOptions sharded = BaseOptions();
    sharded.num_shards = shards;
    auto sharded_or = Run(plan, sharded);
    ASSERT_TRUE(sharded_or.ok())
        << "shards=" << shards << ": " << sharded_or.status().ToString();
    ExpectRowsEqual(base, Rows(sharded_or.value()), 0.0);
  }

  // (2b) lane-count invariance on the sharded backend (single source =>
  // one lane carries data, but the 2-lane executor path — per-lane rings,
  // per-lane watermark generation — must not change anything).
  PlannerOptions lanes = BaseOptions();
  lanes.num_shards = 2;
  lanes.num_ingest_lanes = 2;
  auto lanes_or = Run(plan, lanes);
  ASSERT_TRUE(lanes_or.ok()) << lanes_or.status().ToString();
  ExpectRowsEqual(base, Rows(lanes_or.value()), 0.0);
}

TEST(DifferentialTest, FiftySeededPlansAgreeAcrossPhysicalPaths) {
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kNumSeeds; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "differential harness failed at seed " << seed
             << " — replay with GeneratePlan(" << seed << ")";
    }
  }
}

// Free function (not the TEST body) so the call to Run() does not collide
// with testing::Test::Run member lookup.
void RunScalarDispatchSeed(uint64_t seed) {
  const GeneratedPlan plan = GeneratePlan(seed);
  SCOPED_TRACE("replay: " + plan.ToString());
  auto active_or = Run(plan, BaseOptions());
  ASSERT_TRUE(active_or.ok()) << active_or.status().ToString();
  std::vector<Row> scalar_rows;
  {
    // Forced before Run spawns any worker; restored after Finish joins
    // them, so no thread observes a mid-run tier switch.
    stats::simd::ScopedForceTier force(stats::simd::Tier::kScalar);
    auto scalar_or = Run(plan, BaseOptions());
    ASSERT_TRUE(scalar_or.ok()) << scalar_or.status().ToString();
    scalar_rows = Rows(scalar_or.value());
  }
  ExpectRowsEqual(Rows(active_or.value()), scalar_rows, 0.0);
}

TEST(DifferentialTest, ScalarDispatchMatchesActiveTierBitwise) {
  // The SIMD dispatch table's claim end-to-end: forcing the scalar kernel
  // tier must not change a single bit of any plan's output (the AVX2 tier
  // is lane-exact against the scalar forms). On a machine whose active
  // tier IS scalar this degenerates to a determinism check — still worth
  // running; on AVX2 hosts it covers the whole planner/operator stack.
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + 8; ++seed) {
    RunScalarDispatchSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "scalar-dispatch differential failed at seed " << seed;
    }
  }
}

// ---- tumbling windows: paned vs. naive, every aggregate, bitwise --------

/// Exact rendering of a value: doubles in hex-float, histogram outputs
/// (CF inversion, order statistics) bin by bin.
std::string ExactRender(const Value& v) {
  char buf[64];
  if (v.is_distribution()) {
    const stats::Distribution& d = *v.AsDistribution();
    std::string out = stats::DistTypeName(d.type());
    std::snprintf(buf, sizeof(buf), "(%a,%a)", d.Mean(), d.Variance());
    out += buf;
    if (d.type() == stats::DistType::kHistogram) {
      const auto& h = static_cast<const stats::Histogram&>(d);
      std::snprintf(buf, sizeof(buf), "[%a,%a]", h.lo(), h.hi());
      out += buf;
      for (const double density : h.densities()) {
        std::snprintf(buf, sizeof(buf), " %a", density);
        out += buf;
      }
    }
    return out;
  }
  if (v.is_string()) return v.AsString();
  if (v.is_numeric()) {
    std::snprintf(buf, sizeof(buf), "%a", v.AsDouble());
    return buf;
  }
  return "null";
}

/// Emission-ordered rows: timestamp, every value, and the lineage ids.
std::vector<std::string> ExactRows(const TupleBatch& batch) {
  std::vector<std::string> rows;
  for (const Tuple& t : batch) {
    std::string row = std::to_string(t.timestamp());
    for (size_t i = 0; i < t.num_values(); ++i) {
      row += "|" + ExactRender(t.value(i));
    }
    row += "|lineage";
    for (const TupleId id : t.lineage()) row += " " + std::to_string(id);
    rows.push_back(std::move(row));
  }
  return rows;
}

constexpr int64_t kTumblingWindowUs = 100;

/// [key:int, weight] tuples: 1-2 component mixtures, one in eight a
/// certain number (the SUM shift / extreme clip paths).
std::vector<TupleBatch> TumblingInput() {
  common::Rng rng(20261017);
  std::vector<TupleBatch> batches;
  TupleBatch batch;
  int64_t ts = 0;
  for (size_t i = 0; i < 320; ++i) {
    ts += static_cast<int64_t>(rng.UniformInt(21));
    Value weight = [&]() -> Value {
      if (rng.UniformInt(8) == 0) return Value(rng.Uniform(-2.0, 2.0));
      std::vector<stats::GaussianMixture::Component> comps;
      const size_t k = 1 + rng.UniformInt(2);
      for (size_t c = 0; c < k; ++c) {
        comps.push_back({0.2 + rng.Uniform(), rng.Uniform(-4.0, 6.0),
                         0.3 + rng.Uniform()});
      }
      return Value(stats::DistributionPtr(
          std::make_shared<stats::GaussianMixture>(
              stats::GaussianMixture::Make(std::move(comps))
                  .MoveValueUnsafe())));
    }();
    Tuple t(ts, {Value(static_cast<int64_t>(rng.UniformInt(6))),
                 std::move(weight)});
    t.InitBaseLineage();
    batch.Append(std::move(t));
    if (batch.size() == 48) {
      batches.push_back(std::move(batch));
      batch = TupleBatch();
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

/// SUM and AVG under `kind`, MAX, MIN, COUNT, and a HAVING on the SUM.
query::Query EveryAggregateQuery(uncertain::SumStrategyKind kind) {
  return query::Query::From("src", 2)
      .Window(WindowSpec::Tumbling(kTumblingWindowUs))
      .GroupBy(0)
      .Sum("total", 1, kind)
      .Avg("mean", 1, kind)
      .Max("hi", 1)
      .Min("lo", 1)
      .Count("n")
      .Having(uncertain::MakeHavingProbGreater(1, 2.0, 0.5))
      .Sink("out");
}

common::Result<TupleBatch> RunEveryAggregate(
    uncertain::SumStrategyKind kind, const std::vector<TupleBatch>& input,
    size_t num_shards, PlannerOptions::AggregatePath path) {
  PlannerOptions opts;
  opts.num_shards = num_shards;
  opts.aggregate_path = path;
  auto compiled_or = EveryAggregateQuery(kind).Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  if (compiled->summary().aggregates.at(0).paned !=
      (path == PlannerOptions::AggregatePath::kAuto)) {
    return common::Status::Internal("unexpected aggregate path");
  }
  const auto src = compiled->source("src");
  for (const TupleBatch& batch : input) {
    USP_RETURN_NOT_OK(compiled->PushBatch(src, batch));
  }
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("out"));
}

class TumblingEveryAggregateTest
    : public ::testing::TestWithParam<uncertain::SumStrategyKind> {};

TEST_P(TumblingEveryAggregateTest, PanedMatchesNaiveBitwise) {
  SCOPED_TRACE(uncertain::SumStrategyKindName(GetParam()));
  const std::vector<TupleBatch> input = TumblingInput();
  std::set<std::pair<int64_t, int64_t>> groups;  // (window, key)
  for (const TupleBatch& batch : input) {
    for (const Tuple& t : batch) {
      groups.emplace(t.timestamp() / kTumblingWindowUs, t.value(0).AsInt());
    }
  }
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto naive_or = RunEveryAggregate(
        GetParam(), input, shards, PlannerOptions::AggregatePath::kForceNaive);
    auto paned_or = RunEveryAggregate(GetParam(), input, shards,
                                      PlannerOptions::AggregatePath::kAuto);
    ASSERT_TRUE(naive_or.ok()) << naive_or.status().ToString();
    ASSERT_TRUE(paned_or.ok()) << paned_or.status().ToString();
    const std::vector<std::string> naive = ExactRows(naive_or.value());
    const std::vector<std::string> paned = ExactRows(paned_or.value());
    // HAVING must have decided both ways for the comparison to cover it.
    ASSERT_FALSE(naive.empty());
    ASSERT_LT(naive.size(), groups.size());
    ASSERT_EQ(naive.size(), paned.size());
    for (size_t i = 0; i < naive.size(); ++i) {
      ASSERT_EQ(naive[i], paned[i]) << "row " << i;
    }
  }
}

// ---- sliding windows: shared SUM/AVG slots, bitwise ----------------------

/// Sorted "ts|key|<column>|lineage" renderings of one aggregate column
/// (sharded runs may merge rows in any order).
std::vector<std::string> SortedColumn(const TupleBatch& batch, size_t column) {
  std::vector<std::string> rows;
  for (const Tuple& t : batch) {
    std::string row = std::to_string(t.timestamp()) + "|" +
                      ExactRender(t.value(0)) + "|" +
                      ExactRender(t.value(column)) + "|lineage";
    for (const TupleId id : t.lineage()) row += " " + std::to_string(id);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

common::Result<TupleBatch> RunSliding(query::Query plan,
                                      const std::vector<TupleBatch>& input,
                                      size_t num_shards) {
  PlannerOptions opts;
  opts.num_shards = num_shards;
  auto compiled_or = plan.Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto src = compiled->source("src");
  for (const TupleBatch& batch : input) {
    USP_RETURN_NOT_OK(compiled->PushBatch(src, batch));
  }
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("out"));
}

class SlidingSharedSlotTest
    : public ::testing::TestWithParam<uncertain::SumStrategyKind> {};

TEST_P(SlidingSharedSlotTest, SumAndAvgColumnsMatchSingleColumnPlans) {
  // SUM and AVG of one attribute share a pane partial and one combine
  // (for CF inversion: one inversion) per (window, group); each column's
  // finish must still produce exactly what a plan computing only that
  // column does.
  SCOPED_TRACE(uncertain::SumStrategyKindName(GetParam()));
  const uncertain::SumStrategyKind kind = GetParam();
  const std::vector<TupleBatch> input = TumblingInput();
  auto base = [] {
    return query::Query::From("src", 2)
        .Window(WindowSpec::Sliding(4 * kTumblingWindowUs, kTumblingWindowUs))
        .GroupBy(0);
  };
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto both_or = RunSliding(
        base().Sum("total", 1, kind).Avg("mean", 1, kind).Sink("out"), input,
        shards);
    auto sum_or = RunSliding(base().Sum("total", 1, kind).Sink("out"), input,
                             shards);
    auto avg_or = RunSliding(base().Avg("mean", 1, kind).Sink("out"), input,
                             shards);
    ASSERT_TRUE(both_or.ok()) << both_or.status().ToString();
    ASSERT_TRUE(sum_or.ok()) << sum_or.status().ToString();
    ASSERT_TRUE(avg_or.ok()) << avg_or.status().ToString();
    ASSERT_FALSE(both_or.value().empty());
    EXPECT_EQ(SortedColumn(both_or.value(), 1),
              SortedColumn(sum_or.value(), 1));
    EXPECT_EQ(SortedColumn(both_or.value(), 2),
              SortedColumn(avg_or.value(), 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SharedSlotStrategies, SlidingSharedSlotTest,
    ::testing::Values(uncertain::SumStrategyKind::kCfInversion,
                      uncertain::SumStrategyKind::kClt,
                      uncertain::SumStrategyKind::kCfApprox));

INSTANTIATE_TEST_SUITE_P(
    AllSumStrategies, TumblingEveryAggregateTest,
    ::testing::Values(uncertain::SumStrategyKind::kClt,
                      uncertain::SumStrategyKind::kCfApprox,
                      uncertain::SumStrategyKind::kCfInversion,
                      uncertain::SumStrategyKind::kHistogram,
                      uncertain::SumStrategyKind::kMonteCarlo));

}  // namespace
}  // namespace stream
}  // namespace usp
