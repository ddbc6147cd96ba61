// Planner decision tests: builder-compiled plans are result-identical to
// the hand-wired graphs they replaced (bitwise for tumbling windows,
// tolerance for sliding), pane-incremental aggregation is chosen for
// every window unless the naive reference path is forced, shard keys
// derive from the group-by (replaying upstream maps only up to the last
// one that may rewrite the key), and invalid logical plans fail at
// Compile() with actionable statuses instead of failing at runtime.
//
// Hand-wired ExecGraph construction is allowed HERE (and inside the
// planner) precisely because these are the graph-level equivalence
// baselines; examples and benches go through the builder.

#include "query/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "query/query.h"
#include "stats/gaussian.h"
#include "stream/basic_operators.h"
#include "stream/exec_graph.h"
#include "stream/group_by.h"
#include "stream/join.h"
#include "stream/sharded_executor.h"
#include "uncertain/aggregates.h"
#include "uncertain/join_predicates.h"
#include "uncertain/selection.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace query {
namespace {

using stream::DagExecutor;
using stream::ExecGraph;
using stream::ShardContext;
using stream::ShardedExecutor;
using stream::Tuple;
using stream::TupleBatch;
using stream::Value;
using stream::WindowSpec;

// ---- canonical result rendering (bitwise via %.17g round-trips) ---------

std::string RenderValue(const Value& v) {
  char buf[96];
  switch (v.kind()) {
    case stream::ValueKind::kString:
      return v.AsString();
    case stream::ValueKind::kInt:
      return std::to_string(v.AsInt());
    case stream::ValueKind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      return buf;
    case stream::ValueKind::kDistribution: {
      const auto& d = *v.AsDistribution();
      std::snprintf(buf, sizeof(buf), "d(%.17g,%.17g)", d.Mean(),
                    d.Variance());
      return buf;
    }
    case stream::ValueKind::kNull:
      return "null";
  }
  return "?";
}

std::string RenderTuple(const Tuple& t) {
  std::string out = std::to_string(t.timestamp());
  for (size_t i = 0; i < t.num_values(); ++i) {
    out += "|" + RenderValue(t.value(i));
  }
  return out;
}

/// Exact result sequence (single-threaded plans: order is deterministic).
std::vector<std::string> Rendered(const TupleBatch& batch) {
  std::vector<std::string> out;
  out.reserve(batch.size());
  for (const Tuple& t : batch) out.push_back(RenderTuple(t));
  return out;
}

/// Result set, sorted: shard merges only guarantee set identity plus
/// timestamp order (equal-timestamp ties follow shard assignment).
std::vector<std::string> Canonical(const TupleBatch& batch) {
  auto out = Rendered(batch);
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Q1: keyed tumbling group-by, hand-wired vs. builder ----------------

// Location tuple (tag:int, x:dist, y:dist) with a deterministic layout.
Tuple LocationTuple(int64_t ts, int64_t tag, double x, double y) {
  Tuple t(ts, {Value(tag),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(x, 0.5))),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(y, 0.5)))});
  t.InitBaseLineage();
  return t;
}

std::vector<TupleBatch> Q1Input() {
  std::vector<TupleBatch> batches;
  TupleBatch batch;
  for (int64_t i = 0; i < 600; ++i) {
    const int64_t ts = i * 40'000;  // 24 s of stream, 5 s windows
    const double x = 5.0 + 11.0 * static_cast<double>(i % 7);
    const double y = 5.0 + 11.0 * static_cast<double>((i / 7) % 5);
    batch.Append(LocationTuple(ts, i % 23, x, y));
    if (batch.size() == 64) {
      batches.push_back(std::move(batch));
      batch = TupleBatch();
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

std::string AreaOf(double x, double y) {
  return "area_" + std::to_string(static_cast<int>(x / 10.0)) + "_" +
         std::to_string(static_cast<int>(y / 10.0));
}

common::Result<Tuple> AnnotateAreaWeight(const Tuple& t) {
  Tuple out = t;
  const double x = t.value(1).AsDistribution()->Mean();
  const double y = t.value(2).AsDistribution()->Mean();
  out.AppendValue(Value(AreaOf(x, y)));
  // Uncertain weight derived from the tag (deterministic).
  const double mean = 20.0 + static_cast<double>(t.value(0).AsInt() % 7);
  out.AppendValue(Value(stats::DistributionPtr(
      std::make_shared<stats::Gaussian>(mean, 1.5))));
  return out;
}

// The pre-query-layer wiring, verbatim plan shape of the old
// examples/fire_code_monitoring.cpp: hand-picked shard key, hand-chosen
// naive operator, hand-managed per-shard strategy instances.
TupleBatch RunQ1HandWired(size_t num_shards) {
  ShardedExecutor::Options opts;
  opts.num_shards = num_shards;
  std::vector<std::unique_ptr<uncertain::CfApproxSum>> strategies(num_shards);
  ExecGraph::NodeId source = 0, sink = 0;
  auto exec_or = ShardedExecutor::Create(
      opts,
      [](const Tuple& t) {
        const int cx = static_cast<int>(
            t.value(1).AsDistribution()->Mean() / 10.0);
        const int cy = static_cast<int>(
            t.value(2).AsDistribution()->Mean() / 10.0);
        return std::hash<int64_t>{}((static_cast<int64_t>(cx) << 32) ^
                                    static_cast<uint32_t>(cy));
      },
      [&](ExecGraph* g, const ShardContext& ctx) {
        strategies[ctx.shard_index] =
            std::make_unique<uncertain::CfApproxSum>();
        source = g->AddSource("rfid_stream");
        const auto annotate = g->AddOperator(
            source,
            std::make_unique<stream::MapOperator>("annotate",
                                                  AnnotateAreaWeight));
        const auto group = g->AddOperator(
            annotate,
            std::make_unique<stream::GroupByAggregateOperator>(
                "q1", WindowSpec::Tumbling(5'000'000),
                [](const Tuple& t) { return t.value(3).AsString(); },
                std::vector<stream::AggregateSpec>{
                    uncertain::MakeSumAggregate(
                        "total_weight", 4, strategies[ctx.shard_index].get())},
                uncertain::MakeHavingProbGreater(1, 60.0, 0.5)));
        sink = g->AddSink(group, "alerts");
        return common::Status::OK();
      });
  EXPECT_TRUE(exec_or.ok()) << exec_or.status().ToString();
  auto exec = exec_or.MoveValueUnsafe();
  for (const TupleBatch& b : Q1Input()) {
    EXPECT_TRUE(exec->PushBatch(0, source, b).ok());
  }
  EXPECT_TRUE(exec->Finish().ok());
  return exec->TakeSinkOutput(sink);
}

Query Q1Builder() {
  return Query::From("rfid_stream", 3)
      .Map("annotate", AnnotateAreaWeight, 5)
      .Window(WindowSpec::Tumbling(5'000'000))
      .GroupBy(3)
      .Sum("total_weight", 4, uncertain::SumStrategyKind::kCfApprox)
      .Having(uncertain::MakeHavingProbGreater(1, 60.0, 0.5))
      .Sink("alerts");
}

common::Result<TupleBatch> RunQ1Builder(size_t num_shards) {
  PlannerOptions opts;
  opts.num_shards = num_shards;
  auto compiled_or = Q1Builder().Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto source = compiled->source("rfid_stream");
  for (const TupleBatch& b : Q1Input()) {
    USP_RETURN_NOT_OK(compiled->PushBatch(source, b));
  }
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("alerts"));
}

TEST(PlannerTest, Q1BuilderMatchesHandWiredFourShards) {
  const TupleBatch hand = RunQ1HandWired(4);
  auto built_or = RunQ1Builder(4);
  ASSERT_TRUE(built_or.ok()) << built_or.status().ToString();
  ASSERT_FALSE(hand.empty());
  // Tumbling window + per-shard arrival order preserved => the group
  // contents and their order are identical, so the aggregates are bitwise
  // equal; only equal-timestamp tie order may differ (different shard
  // keys), hence the canonical (sorted) comparison.
  EXPECT_EQ(Canonical(built_or.value()), Canonical(hand));
}

TEST(PlannerTest, Q1BuilderShardCountInvariant) {
  auto one_or = RunQ1Builder(1);
  auto four_or = RunQ1Builder(4);
  ASSERT_TRUE(one_or.ok()) << one_or.status().ToString();
  ASSERT_TRUE(four_or.ok()) << four_or.status().ToString();
  ASSERT_FALSE(one_or.value().empty());
  EXPECT_EQ(Canonical(one_or.value()), Canonical(four_or.value()));
}

TEST(PlannerTest, Q1ShardKeyIsReplayedGroupKey) {
  // The group key reads attribute 3, which only exists after the
  // annotate map: the planner must replay the map at ingest to derive
  // the partition key.
  PlannerOptions opts;
  opts.num_shards = 4;
  auto compiled_or = Q1Builder().Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.sharded);
  EXPECT_EQ(s.num_shards, 4u);
  EXPECT_EQ(s.shard_key_source,
            PlanSummary::ShardKeySource::kReplayedGroupKey);
  ASSERT_EQ(s.aggregates.size(), 1u);
  EXPECT_TRUE(s.aggregates[0].paned);  // tumbling => one pane per window
  opts.aggregate_path = PlannerOptions::AggregatePath::kForceNaive;
  auto naive_or = Q1Builder().Compile(opts);
  ASSERT_TRUE(naive_or.ok()) << naive_or.status().ToString();
  EXPECT_FALSE(naive_or.value()->summary().aggregates[0].paned);
}

// ---- Q2: fan-in join, hand-wired vs. builder ----------------------------

Tuple ObjectTuple(int64_t ts, int64_t tag, double x, double y) {
  Tuple t(ts, {Value(tag),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(x, 0.8))),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(y, 0.8)))});
  t.InitBaseLineage();
  return t;
}

Tuple TempTuple(int64_t ts, double x, double y, double temp) {
  Tuple t(ts, {Value(x), Value(y),
               Value(stats::DistributionPtr(
                   std::make_shared<stats::Gaussian>(temp, 2.0)))});
  t.InitBaseLineage();
  return t;
}

uncertain::EqualityJoinSpec Q2Spec() {
  uncertain::EqualityJoinSpec spec;
  spec.left_attrs = {1, 2};
  spec.right_attrs = {0, 1};
  spec.eps = 3.0;
  spec.min_confidence = 0.3;
  return spec;
}

bool FlammablePred(const Tuple& t) { return t.value(0).AsInt() % 3 == 0; }

// Interleaved object/temperature pushes in global timestamp order.
void DriveQ2(const std::function<void(bool /*left*/, Tuple)>& push) {
  for (int64_t i = 0; i < 200; ++i) {
    const int64_t ts = i * 500'000;
    push(true, ObjectTuple(ts, i % 9, 5.0 + static_cast<double>(i % 4),
                           5.0 + static_cast<double>(i % 3)));
    if (i % 4 == 0) {
      push(false, TempTuple(ts + 1, 6.0, 6.0,
                            55.0 + static_cast<double>(i % 20)));
    }
  }
}

TupleBatch RunQ2HandWired() {
  auto graph = std::make_unique<ExecGraph>();
  const auto rfid_src = graph->AddSource("rfid_stream");
  const auto temp_src = graph->AddSource("temp_stream");
  const auto flammable = graph->AddOperator(
      rfid_src,
      std::make_unique<stream::FilterOperator>("flammable", FlammablePred));
  const auto join = graph->AddJoin(
      flammable, temp_src,
      std::make_unique<stream::SlidingWindowJoin>(
          "q2", 3'000'000,
          uncertain::MakeProbabilisticEqualityMatch(Q2Spec())));
  const auto sink = graph->AddSink(join, "alerts");
  EXPECT_TRUE(graph->Validate().ok());
  DagExecutor exec(std::move(graph));
  DriveQ2([&](bool left, Tuple t) {
    EXPECT_TRUE(exec.Push(left ? rfid_src : temp_src, t).ok());
  });
  EXPECT_TRUE(exec.Close().ok());
  return exec.TakeSinkOutput(sink);
}

common::Result<TupleBatch> RunQ2Builder() {
  auto rfid = Query::From("rfid_stream", 3);
  auto temps = Query::From("temp_stream", 3);
  auto q2 = rfid.Filter("flammable", FlammablePred)
                .Join(temps, 3'000'000,
                      uncertain::MakeProbabilisticEqualityMatch(Q2Spec()),
                      "q2")
                .Sink("alerts");
  auto compiled_or = q2.Compile();
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto rfid_id = compiled->source("rfid_stream");
  const auto temp_id = compiled->source("temp_stream");
  common::Status push_status;
  DriveQ2([&](bool left, Tuple t) {
    const auto st = compiled->Push(left ? rfid_id : temp_id, std::move(t));
    if (push_status.ok() && !st.ok()) push_status = st;
  });
  USP_RETURN_NOT_OK(push_status);
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("alerts"));
}

TEST(PlannerTest, Q2BuilderMatchesHandWiredFanInJoin) {
  const TupleBatch hand = RunQ2HandWired();
  auto built_or = RunQ2Builder();
  ASSERT_TRUE(built_or.ok()) << built_or.status().ToString();
  ASSERT_FALSE(hand.empty());
  // Single-threaded DAG on both sides: sequences must match exactly,
  // including order.
  EXPECT_EQ(Rendered(built_or.value()), Rendered(hand));
}

// ---- planner decisions --------------------------------------------------

TupleBatch MakeKeyedGaussianStream(size_t n) {
  TupleBatch batch;
  for (size_t i = 0; i < n; ++i) {
    Tuple t(static_cast<int64_t>(i * 7),
            {Value(static_cast<int64_t>(i % 4)),
             Value(stats::DistributionPtr(std::make_shared<stats::Gaussian>(
                 static_cast<double>(i % 9) - 4.0,
                 0.5 + 0.1 * static_cast<double>(i % 3))))});
    t.InitBaseLineage();
    batch.Append(std::move(t));
  }
  return batch;
}

Query KeyedSumQuery(WindowSpec spec) {
  return Query::From("src", 2)
      .Window(spec)
      .GroupBy(0)
      .Sum("total", 1, uncertain::SumStrategyKind::kClt)
      .Sink("out");
}

/// Compiles `q` (source "src", sink "out") and runs it over
/// MakeKeyedGaussianStream(500).
common::Result<TupleBatch> RunQuery(const Query& q,
                                    const PlannerOptions& opts) {
  auto compiled_or = q.Compile(opts);
  USP_RETURN_NOT_OK(compiled_or.status());
  auto compiled = compiled_or.MoveValueUnsafe();
  USP_RETURN_NOT_OK(compiled->PushBatch(compiled->source("src"),
                                        MakeKeyedGaussianStream(500)));
  USP_RETURN_NOT_OK(compiled->Finish());
  return compiled->TakeResult(compiled->sink("out"));
}

common::Result<TupleBatch> RunKeyedSum(WindowSpec spec,
                                       const PlannerOptions& opts) {
  return RunQuery(KeyedSumQuery(spec), opts);
}

TEST(PlannerTest, PanedAggregationChosenUnlessNaiveForced) {
  PlannerOptions force_naive;
  force_naive.aggregate_path = PlannerOptions::AggregatePath::kForceNaive;
  for (const WindowSpec spec :
       {WindowSpec::Sliding(100, 25), WindowSpec::Tumbling(100)}) {
    auto paned = KeyedSumQuery(spec).Compile();
    auto naive = KeyedSumQuery(spec).Compile(force_naive);
    ASSERT_TRUE(paned.ok());
    ASSERT_TRUE(naive.ok());
    ASSERT_EQ(paned.value()->summary().aggregates.size(), 1u);
    EXPECT_TRUE(paned.value()->summary().aggregates[0].paned);
    EXPECT_FALSE(naive.value()->summary().aggregates[0].paned);
  }
}

TEST(PlannerTest, TumblingPanedAndNaiveAreBitwiseIdentical) {
  PlannerOptions force_naive;
  force_naive.aggregate_path = PlannerOptions::AggregatePath::kForceNaive;
  auto naive = RunKeyedSum(WindowSpec::Tumbling(100), force_naive);
  auto paned = RunKeyedSum(WindowSpec::Tumbling(100), PlannerOptions{});
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(paned.ok());
  ASSERT_FALSE(naive.value().empty());
  EXPECT_EQ(Rendered(naive.value()), Rendered(paned.value()));
}

TEST(PlannerTest, SlidingPanedMatchesNaiveWithinTolerance) {
  PlannerOptions force_naive;
  force_naive.aggregate_path = PlannerOptions::AggregatePath::kForceNaive;
  auto naive = RunKeyedSum(WindowSpec::Sliding(100, 25), force_naive);
  auto paned = RunKeyedSum(WindowSpec::Sliding(100, 25), PlannerOptions{});
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(paned.ok());
  const TupleBatch& a = naive.value();
  const TupleBatch& b = paned.value();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp(), b[i].timestamp());
    EXPECT_EQ(a[i].value(0).AsString(), b[i].value(0).AsString());
    const auto& da = *a[i].value(1).AsDistribution();
    const auto& db = *b[i].value(1).AsDistribution();
    EXPECT_NEAR(da.Mean(), db.Mean(), 1e-6);
    EXPECT_NEAR(da.Stddev(), db.Stddev(), 1e-6);
  }
}

// ---- shard-key replay rule ----------------------------------------------

/// Q1 shape whose annotate map appends P(weight > 5) and declares the
/// source attributes (the group key among them) preserved. `map_calls`
/// counts every invocation of the map function.
Query PreservingQ1(std::atomic<int>* map_calls) {
  return Query::From("src", 2)
      .Map("annotate",
           [map_calls](const Tuple& t) -> common::Result<Tuple> {
             map_calls->fetch_add(1, std::memory_order_relaxed);
             Tuple out = t;
             out.AppendValue(Value(uncertain::PredicateProbability(
                 t.value(1), uncertain::PredicateOp::kGreaterThan, 5.0)));
             return out;
           },
           3, /*preserved_prefix=*/2)
      .Window(WindowSpec::Tumbling(100))
      .GroupBy(0)
      .Sum("total", 1, uncertain::SumStrategyKind::kCfApprox)
      .Having(uncertain::MakeHavingProbGreater(1, 0.0, 0.5))
      .Sink("out");
}

/// Two chained maps: `bucket` appends attribute 2 (preserving the source
/// attributes, the group key among them), then `rekey` overwrites the
/// group key (attribute 0) with a value computed from attribute 2. The
/// key is rewritten by `rekey`, which reads what `bucket` appended, so
/// both must be replayed at ingest even though `bucket` alone would keep
/// the key.
Query ChainedKeyQuery(std::atomic<int>* bucket_calls,
                      std::atomic<int>* rekey_calls) {
  return Query::From("src", 2)
      .Map("bucket",
           [bucket_calls](const Tuple& t) -> common::Result<Tuple> {
             bucket_calls->fetch_add(1, std::memory_order_relaxed);
             Tuple out = t;
             out.AppendValue(Value(t.value(0).AsInt() * 7 + 1));
             return out;
           },
           3, /*preserved_prefix=*/2)
      .Map("rekey",
           [rekey_calls](const Tuple& t) -> common::Result<Tuple> {
             rekey_calls->fetch_add(1, std::memory_order_relaxed);
             if (t.num_values() < 3) {
               return common::Status::OutOfRange("bucket attribute missing");
             }
             Tuple out = t;
             out.mutable_value(0) =
                 Value("k" + std::to_string(t.value(2).AsInt() % 3));
             return out;
           },
           3)
      .Window(WindowSpec::Tumbling(100))
      .GroupBy(0)
      .Sum("total", 1, uncertain::SumStrategyKind::kCfApprox)
      .Sink("out");
}

TEST(PlannerTest, KeyPreservingMapIsNotReplayedAtIngest) {
  std::atomic<int> calls{0};
  PlannerOptions four, one;
  four.num_shards = 4;
  one.num_shards = 1;
  auto compiled_or = PreservingQ1(&calls).Compile(four);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  EXPECT_EQ(compiled_or.value()->summary().shard_key_source,
            PlanSummary::ShardKeySource::kGroupKey);
  // The in-graph map runs once per tuple; ingest hashes the raw key.
  auto four_or = RunQuery(PreservingQ1(&calls), four);
  ASSERT_TRUE(four_or.ok()) << four_or.status().ToString();
  EXPECT_EQ(calls.load(), 500);
  auto one_or = RunQuery(PreservingQ1(&calls), one);
  ASSERT_TRUE(one_or.ok()) << one_or.status().ToString();
  ASSERT_FALSE(one_or.value().empty());
  EXPECT_EQ(Canonical(one_or.value()), Canonical(four_or.value()));
}

TEST(PlannerTest, KeyComputingMapReplaysEveryUpstreamMap) {
  std::atomic<int> bucket_calls{0}, rekey_calls{0};
  PlannerOptions four, one;
  four.num_shards = 4;
  one.num_shards = 1;
  auto compiled_or =
      ChainedKeyQuery(&bucket_calls, &rekey_calls).Compile(four);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  EXPECT_EQ(compiled_or.value()->summary().shard_key_source,
            PlanSummary::ShardKeySource::kReplayedGroupKey);
  // Both maps run at ingest (the key needs what `bucket` appended) and
  // again in the graph.
  auto four_or = RunQuery(ChainedKeyQuery(&bucket_calls, &rekey_calls), four);
  ASSERT_TRUE(four_or.ok()) << four_or.status().ToString();
  EXPECT_EQ(bucket_calls.load(), 1000);
  EXPECT_EQ(rekey_calls.load(), 1000);
  auto one_or = RunQuery(ChainedKeyQuery(&bucket_calls, &rekey_calls), one);
  ASSERT_TRUE(one_or.ok()) << one_or.status().ToString();
  ASSERT_FALSE(one_or.value().empty());
  EXPECT_EQ(Canonical(one_or.value()), Canonical(four_or.value()));
}

TEST(PlannerTest, SummaryToStringNamesShardKeySource) {
  std::atomic<int> calls{0};
  PlannerOptions opts;
  opts.num_shards = 4;
  auto hashed_or = PreservingQ1(&calls).Compile(opts);
  auto replayed_or = ChainedKeyQuery(&calls, &calls).Compile(opts);
  ASSERT_TRUE(hashed_or.ok()) << hashed_or.status().ToString();
  ASSERT_TRUE(replayed_or.ok()) << replayed_or.status().ToString();
  const std::string hashed = hashed_or.value()->summary().ToString();
  const std::string replayed = replayed_or.value()->summary().ToString();
  EXPECT_NE(hashed.find("partition key: hashed group key"), std::string::npos)
      << hashed;
  EXPECT_NE(hashed.find("pane-incremental"), std::string::npos) << hashed;
  EXPECT_NE(replayed.find("partition key: group key via replayed maps"),
            std::string::npos)
      << replayed;
}

TEST(PlannerTest, ShardedKeyedSumMatchesSingleShard) {
  // Filters-only upstream: the shard key is the hashed group key itself.
  PlannerOptions four;
  four.num_shards = 4;
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(four);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  EXPECT_EQ(compiled_or.value()->summary().shard_key_source,
            PlanSummary::ShardKeySource::kGroupKey);
  auto one = RunKeyedSum(WindowSpec::Tumbling(100), PlannerOptions{});
  auto sharded = RunKeyedSum(WindowSpec::Tumbling(100), four);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(Canonical(one.value()), Canonical(sharded.value()));
}

TEST(PlannerTest, CfInversionWorkspaceWiredIntoShardedPlan) {
  // CF-inversion SUM needs the per-shard CfInversionWorkspace; result
  // must be shard-count-invariant if the wiring is scratch-only.
  auto query = Query::From("src", 2)
                   .Window(WindowSpec::Sliding(40, 10))
                   .GroupBy(0)
                   .Sum("total", 1, uncertain::SumStrategyKind::kCfInversion)
                   .Sink("out");
  auto run = [&](size_t shards) {
    PlannerOptions opts;
    opts.num_shards = shards;
    opts.cf_grid_points = 256;
    auto compiled_or = query.Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    EXPECT_TRUE(compiled
                    ->PushBatch(compiled->source("src"),
                                MakeKeyedGaussianStream(300))
                    .ok());
    EXPECT_TRUE(compiled->Finish().ok());
    return compiled->TakeResult(compiled->sink("out"));
  };
  const TupleBatch one = run(1);
  const TupleBatch four = run(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(Canonical(one), Canonical(four));
}

// ---- compile-time failures ----------------------------------------------

TEST(PlannerTest, AggregateWithoutWindowFailsAtCompile) {
  auto q = Query::From("src", 2).GroupBy(0).Sum("total", 1).Sink("out");
  auto compiled = q.Compile();
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("no window"), std::string::npos)
      << compiled.status().ToString();
}

TEST(PlannerTest, UnknownKeyFailsAtCompile) {
  auto q = Query::From("src", 2)
               .Window(WindowSpec::Tumbling(100))
               .GroupBy(9)
               .Sum("total", 1)
               .Sink("out");
  auto compiled = q.Compile();
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("unknown attribute 9"),
            std::string::npos)
      << compiled.status().ToString();
}

TEST(PlannerTest, ShardedJoinWithoutPartitionKeyFailsAtCompile) {
  auto left = Query::From("a", 2);
  auto right = Query::From("b", 2);
  auto q = left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
               .Sink("out");
  PlannerOptions opts;
  opts.num_shards = 4;
  auto compiled = q.Compile(opts);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("join"), std::string::npos)
      << compiled.status().ToString();
  // The same plan compiles single-shard.
  EXPECT_TRUE(q.Compile().ok());
}

TEST(PlannerTest, UngroupedAggregateCannotShard) {
  auto q = Query::From("src", 2)
               .Window(WindowSpec::Tumbling(100))
               .Sum("total", 1)
               .Sink("out");
  PlannerOptions opts;
  opts.num_shards = 2;
  auto compiled = q.Compile(opts);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("ungrouped"), std::string::npos)
      << compiled.status().ToString();
  EXPECT_TRUE(q.Compile().ok());
}

TEST(PlannerTest, StatelessShardedPlanNeedsExplicitKey) {
  auto q = Query::From("src", 2)
               .Filter("keep", [](const Tuple&) { return true; })
               .Sink("out");
  PlannerOptions opts;
  opts.num_shards = 2;
  auto without = q.Compile(opts);
  ASSERT_FALSE(without.ok());
  EXPECT_NE(without.status().message().find("PartitionBy"),
            std::string::npos);
  auto with = q.PartitionBy(stream::KeyByIntValue(0)).Compile(opts);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_EQ(with.value()->summary().shard_key_source,
            PlanSummary::ShardKeySource::kExplicit);
}

// ---- physical auto-tuning -----------------------------------------------

TEST(PlannerTest, AutoShardsResolveFromHardwareConcurrency) {
  // Default options = auto sharding; pin the "machine" to 4 cores so the
  // test behaves the same on the 1-core container and on CI.
  PlannerOptions opts;
  opts.hardware_concurrency_override = 4;
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.auto_num_shards);
  EXPECT_EQ(s.num_shards, 4u);
  EXPECT_TRUE(s.sharded);
  EXPECT_EQ(s.shard_key_source, PlanSummary::ShardKeySource::kGroupKey);
  // Same results as the explicit single-shard plan.
  PlannerOptions one;
  one.num_shards = 1;
  auto auto_run = RunKeyedSum(WindowSpec::Tumbling(100), opts);
  auto one_run = RunKeyedSum(WindowSpec::Tumbling(100), one);
  ASSERT_TRUE(auto_run.ok()) << auto_run.status().ToString();
  ASSERT_TRUE(one_run.ok());
  ASSERT_FALSE(one_run.value().empty());
  EXPECT_EQ(Canonical(auto_run.value()), Canonical(one_run.value()));
}

TEST(PlannerTest, ExplicitShardCountWinsOverAuto) {
  PlannerOptions opts;
  opts.hardware_concurrency_override = 8;
  opts.num_shards = 2;
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(compiled_or.ok());
  EXPECT_FALSE(compiled_or.value()->summary().auto_num_shards);
  EXPECT_EQ(compiled_or.value()->summary().num_shards, 2u);
}

TEST(PlannerTest, PinThreadsResolvesFromHardwareConcurrency) {
  // Auto rule: pin on sharded plans when the machine has >= 4 hardware
  // threads; the override pins the "machine" so the test is host-stable.
  PlannerOptions opts;
  opts.hardware_concurrency_override = 4;
  auto big = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_TRUE(big.value()->summary().sharded);
  EXPECT_TRUE(big.value()->summary().pin_threads);
  EXPECT_TRUE(big.value()->summary().auto_pin_threads);
  EXPECT_NE(big.value()->summary().ToString().find("thread pinning on [auto]"),
            std::string::npos)
      << big.value()->summary().ToString();

  opts.hardware_concurrency_override = 2;
  opts.num_shards = 2;  // sharded, but too few cores for auto pinning
  auto small = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small.value()->summary().sharded);
  EXPECT_FALSE(small.value()->summary().pin_threads);
  EXPECT_TRUE(small.value()->summary().auto_pin_threads);

  // Explicit knobs win over the auto rule in both directions.
  opts.pin_threads = PlannerOptions::PinThreads::kOn;
  auto forced_on = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(forced_on.ok());
  EXPECT_TRUE(forced_on.value()->summary().pin_threads);
  EXPECT_FALSE(forced_on.value()->summary().auto_pin_threads);

  opts.hardware_concurrency_override = 8;
  opts.pin_threads = PlannerOptions::PinThreads::kOff;
  auto forced_off = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(opts);
  ASSERT_TRUE(forced_off.ok());
  EXPECT_FALSE(forced_off.value()->summary().pin_threads);

  // Non-sharded plans have no worker threads to pin.
  PlannerOptions single;
  single.num_shards = 1;
  single.pin_threads = PlannerOptions::PinThreads::kOn;
  auto unsharded = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(single);
  ASSERT_TRUE(unsharded.ok());
  EXPECT_FALSE(unsharded.value()->summary().sharded);
  EXPECT_FALSE(unsharded.value()->summary().pin_threads);
}

TEST(PlannerTest, CfGridSharingRecordedAndObservableInMetrics) {
  // Every tuple carries the same sensor model, split across 4 groups: the
  // cross-group CF grid cache turns all but the first evaluation of each
  // grid shape into hits, results stay bitwise-identical, and the
  // hit/miss counters surface through the aggregate's OperatorMetrics.
  auto query = Query::From("src", 2)
                   .Window(WindowSpec::Sliding(40, 10))
                   .GroupBy(0)
                   .Sum("total", 1, uncertain::SumStrategyKind::kCfInversion)
                   .Sink("out");
  TupleBatch stream;
  for (size_t i = 0; i < 240; ++i) {
    Tuple t(static_cast<int64_t>(i * 7),
            {Value(static_cast<int64_t>(i % 4)),
             Value(stats::DistributionPtr(
                 std::make_shared<stats::Gaussian>(1.0, 0.8)))});
    t.InitBaseLineage();
    stream.Append(std::move(t));
  }
  struct RunResult {
    std::vector<std::string> rows;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  auto run = [&](bool share) {
    RunResult r;
    PlannerOptions opts;
    opts.num_shards = 1;
    opts.cf_grid_points = 256;
    opts.share_cf_grids = share;
    auto compiled_or = query.Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    EXPECT_EQ(compiled->summary().cf_grid_sharing, share);
    if (share) {
      EXPECT_NE(compiled->summary().ToString().find("CF grid sharing"),
                std::string::npos)
          << compiled->summary().ToString();
    }
    EXPECT_TRUE(compiled->PushBatch(compiled->source("src"), stream).ok());
    EXPECT_TRUE(compiled->Finish().ok());
    r.rows = Canonical(compiled->TakeResult(compiled->sink("out")));
    for (const auto& m : compiled->MetricsSnapshot()) {
      r.hits += m.metrics.grid_cache_hits;
      r.misses += m.metrics.grid_cache_misses;
    }
    return r;
  };
  const RunResult shared = run(true);
  const RunResult unshared = run(false);
  ASSERT_FALSE(shared.rows.empty());
  EXPECT_EQ(shared.rows, unshared.rows);  // sharing is bitwise-neutral
  EXPECT_GT(shared.hits, 0u);
  EXPECT_GT(shared.misses, 0u);
  EXPECT_GT(shared.hits, shared.misses);  // one model -> mostly hits
  EXPECT_EQ(unshared.hits, 0u);
  EXPECT_EQ(unshared.misses, 0u);
}

TEST(PlannerTest, AutoShardsFallBackToOneWhenKeyUnderivable) {
  // A join has no derivable partition key: an AUTO shard choice degrades
  // to 1 shard with the reason in the summary (an EXPLICIT N > 1 still
  // fails Compile, covered elsewhere).
  auto left = Query::From("a", 2);
  auto right = Query::From("b", 2);
  auto q = left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
               .Sink("out");
  PlannerOptions opts;
  opts.hardware_concurrency_override = 4;
  auto compiled_or = q.Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.auto_num_shards);
  EXPECT_EQ(s.num_shards, 1u);
  EXPECT_NE(s.auto_shard_note.find("fell back"), std::string::npos)
      << s.ToString();
}

TEST(PlannerTest, AutoLanesGiveEachSourceItsOwnLane) {
  // Sharded join (explicit partition key): auto lanes resolve to one per
  // source, and the result SET matches the single-lane run.
  auto build = [] {
    auto left = Query::From("a", 2);
    auto right = Query::From("b", 2);
    return left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       if (l.value(0).AsInt() != r.value(0).AsInt()) {
                         return std::optional<Tuple>();
                       }
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
        .Sink("out")
        .PartitionBy(stream::KeyByIntValue(0));
  };
  auto run = [&](size_t lanes) -> common::Result<TupleBatch> {
    PlannerOptions opts;
    opts.num_shards = 2;
    opts.num_ingest_lanes = lanes;  // kAutoLanes = 0 = auto
    auto compiled_or = build().Compile(opts);
    USP_RETURN_NOT_OK(compiled_or.status());
    auto compiled = compiled_or.MoveValueUnsafe();
    const auto a = compiled->source("a");
    const auto b = compiled->source("b");
    for (int64_t i = 0; i < 300; ++i) {
      Tuple l(i * 10, {Value(i % 5), Value(1.0)});
      l.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(a, std::move(l)));
      Tuple r(i * 10 + 1, {Value(i % 5), Value(2.0)});
      r.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(b, std::move(r)));
    }
    USP_RETURN_NOT_OK(compiled->Finish());
    return compiled->TakeResult(compiled->sink("out"));
  };
  PlannerOptions probe;
  probe.num_shards = 2;
  auto compiled_or = build().Compile(probe);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.auto_num_ingest_lanes);
  EXPECT_EQ(s.num_ingest_lanes, 2u);
  EXPECT_NE(compiled_or.value()->ingest_lane(compiled_or.value()->source("a")),
            compiled_or.value()->ingest_lane(compiled_or.value()->source("b")));
  auto multi = run(PlannerOptions::kAutoLanes);
  auto single = run(1);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ASSERT_FALSE(single.value().empty());
  EXPECT_EQ(Canonical(multi.value()), Canonical(single.value()));
}

TEST(PlannerTest, MultiLaneRefusedBelowJoinWindowAggregateWithoutWatermarks) {
  // A windowed aggregate downstream of a join needs cross-source
  // timestamp order, which multi-lane ingest does not provide. WITHOUT
  // watermarks (period explicitly 0) the old rule stands: explicit
  // lanes > 1 must fail, auto lanes must degrade to 1 with the reason.
  auto build = [] {
    auto left = Query::From("a", 2);
    auto right = Query::From("b", 2);
    return left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
        .Window(WindowSpec::Tumbling(100))
        .Sum("total", 1)
        .Sink("out");
  };
  PlannerOptions explicit_lanes;
  explicit_lanes.num_shards = 1;
  explicit_lanes.num_ingest_lanes = 2;
  explicit_lanes.watermark_period_us = 0;
  auto refused = build().Compile(explicit_lanes);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("num_ingest_lanes"),
            std::string::npos)
      << refused.status().ToString();
  // The error teaches the fix: enabling watermarks lifts the refusal.
  EXPECT_NE(refused.status().message().find("watermark"), std::string::npos)
      << refused.status().ToString();

  PlannerOptions auto_lanes;
  auto_lanes.num_shards = 2;
  auto_lanes.watermark_period_us = 0;
  auto with_key = build().PartitionBy(stream::KeyByIntValue(0))
                      .Compile(auto_lanes);
  ASSERT_TRUE(with_key.ok()) << with_key.status().ToString();
  const PlanSummary& s = with_key.value()->summary();
  EXPECT_TRUE(s.auto_num_ingest_lanes);
  EXPECT_EQ(s.num_ingest_lanes, 1u);
  EXPECT_NE(s.auto_lane_note.find("downstream of a join"),
            std::string::npos)
      << s.ToString();

  // A join downstream of another join is order-sensitive the same way
  // (its per-side expiry clocks need each input in timestamp order).
  auto pass_match = [](const Tuple& l, const Tuple& r) {
    return std::optional<Tuple>(stream::ConcatJoinedTuple(l, r));
  };
  auto joined_twice = Query::From("a", 2)
                          .Join(Query::From("b", 2), 1000, pass_match, "j1")
                          .Join(Query::From("c", 2), 1000, pass_match, "j2")
                          .Sink("out");
  PlannerOptions two_lanes;
  two_lanes.num_shards = 1;
  two_lanes.num_ingest_lanes = 2;
  auto nested = joined_twice.Compile(two_lanes);
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.status().message().find("join 'j2'"), std::string::npos)
      << nested.status().ToString();
}

TEST(PlannerTest, WatermarksLiftMultiLaneRefusalBelowJoin) {
  // With watermarks on (the default), a windowed aggregate downstream of
  // a join compiles multi-lane: the planner switches the aggregate to
  // watermark-only window closure (reported in the summary) and the
  // result set matches the single-lane run — windows close by the join's
  // propagated watermark, so the skew-regressed join emission order no
  // longer corrupts them.
  auto build = [] {
    auto left = Query::From("a", 2);
    auto right = Query::From("b", 2);
    return left.Join(right, 1000,
                     [](const Tuple& l, const Tuple& r) {
                       if (l.value(0).AsInt() != r.value(0).AsInt()) {
                         return std::optional<Tuple>();
                       }
                       return std::optional<Tuple>(
                           stream::ConcatJoinedTuple(l, r));
                     },
                     "j")
        .Window(WindowSpec::Tumbling(500))
        .GroupBy(0)
        .Count("n")
        .Sink("out");
  };
  auto run = [&](size_t lanes) -> common::Result<TupleBatch> {
    PlannerOptions opts;
    opts.num_shards = 1;
    opts.num_ingest_lanes = lanes;
    auto compiled_or = build().Compile(opts);
    USP_RETURN_NOT_OK(compiled_or.status());
    auto compiled = compiled_or.MoveValueUnsafe();
    const auto a = compiled->source("a");
    const auto b = compiled->source("b");
    for (int64_t i = 0; i < 400; ++i) {
      Tuple l(i * 10, {Value(i % 3), Value(1.0)});
      l.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(a, std::move(l)));
      Tuple r(i * 10 + 1, {Value(i % 3), Value(2.0)});
      r.InitBaseLineage();
      USP_RETURN_NOT_OK(compiled->Push(b, std::move(r)));
    }
    USP_RETURN_NOT_OK(compiled->Finish());
    return compiled->TakeResult(compiled->sink("out"));
  };
  PlannerOptions probe;
  probe.num_shards = 1;
  probe.num_ingest_lanes = 2;
  auto compiled_or = build().Compile(probe);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_EQ(s.num_ingest_lanes, 2u);
  EXPECT_GT(s.watermark_period_us, 0);
  ASSERT_EQ(s.watermark_driven.size(), 1u) << s.ToString();
  EXPECT_EQ(s.watermark_driven[0], "n_agg");
  auto two = run(2);
  auto one = run(1);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_FALSE(one.value().empty());
  EXPECT_EQ(Canonical(two.value()), Canonical(one.value()));
}

TEST(PlannerTest, WatermarkPeriodAutoDerivedAndOverridable) {
  // Auto period: a quarter of the smallest window slide / join range.
  auto q = KeyedSumQuery(WindowSpec::Sliding(400, 100));
  auto auto_or = q.Compile(PlannerOptions{});
  ASSERT_TRUE(auto_or.ok()) << auto_or.status().ToString();
  EXPECT_TRUE(auto_or.value()->summary().auto_watermark_period);
  EXPECT_EQ(auto_or.value()->summary().watermark_period_us, 25);

  PlannerOptions fixed;
  fixed.watermark_period_us = 7;
  auto fixed_or = q.Compile(fixed);
  ASSERT_TRUE(fixed_or.ok());
  EXPECT_FALSE(fixed_or.value()->summary().auto_watermark_period);
  EXPECT_EQ(fixed_or.value()->summary().watermark_period_us, 7);

  // A stateless plan has nothing to close or expire: auto resolves to off.
  auto stateless = Query::From("src", 1)
                       .Filter("pass", [](const Tuple&) { return true; })
                       .Sink("out");
  auto off_or = stateless.Compile(PlannerOptions{});
  ASSERT_TRUE(off_or.ok());
  EXPECT_EQ(off_or.value()->summary().watermark_period_us, 0);
}

TEST(PlannerTest, WatermarksDoNotChangeSingleLaneResults) {
  // The watermark closure rule fires exactly where arrival-driven
  // closure already fired, so enabling generation must not change any
  // result — bitwise, single-threaded plan.
  auto run = [](int64_t period) {
    PlannerOptions opts;
    opts.num_shards = 1;
    opts.watermark_period_us = period;
    auto compiled_or =
        KeyedSumQuery(WindowSpec::Sliding(400, 100)).Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    const auto src = compiled->source("src");
    // Small pushes so periodic generation fires many times mid-stream.
    const TupleBatch stream = MakeKeyedGaussianStream(500);
    for (const Tuple& t : stream) {
      EXPECT_TRUE(compiled->Push(src, t).ok());
    }
    EXPECT_TRUE(compiled->Finish().ok());
    return Rendered(compiled->Result("out"));
  };
  const auto with_watermarks = run(50);
  const auto without = run(0);
  ASSERT_FALSE(without.empty());
  EXPECT_EQ(with_watermarks, without);
}

TEST(PlannerTest, AutoTargetBatchSizeReportedAndOverridable) {
  PlannerOptions auto_opts;
  auto_opts.num_shards = 2;
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100))
                         .Compile(auto_opts);
  ASSERT_TRUE(compiled_or.ok());
  const PlanSummary& s = compiled_or.value()->summary();
  EXPECT_TRUE(s.auto_target_batch_size);
  EXPECT_EQ(s.target_batch_size,
            stream::ShardedExecutor::kDefaultInitialBatch);
  EXPECT_EQ(compiled_or.value()->current_target_batch_size(),
            stream::ShardedExecutor::kDefaultInitialBatch);

  PlannerOptions fixed;
  fixed.num_shards = 2;
  fixed.target_batch_size = 0;  // explicit pass-through wins over auto
  auto fixed_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile(fixed);
  ASSERT_TRUE(fixed_or.ok());
  EXPECT_FALSE(fixed_or.value()->summary().auto_target_batch_size);
  EXPECT_EQ(fixed_or.value()->summary().target_batch_size, 0u);
  EXPECT_EQ(fixed_or.value()->current_target_batch_size(), 0u);
}

// ---- filter pushdown ----------------------------------------------------

Query PushdownQuery(bool declare_reads = true) {
  // annotate appends a derived attribute (preserving the 2 source attrs);
  // the filter reads only attribute 0, so the planner may run it first —
  // but only when the read set is declared; an opaque predicate stays put.
  auto keep = [](const Tuple& t) { return t.value(0).AsInt() % 2 == 0; };
  const Query annotated =
      Query::From("src", 2).Map("annotate",
                                [](const Tuple& t) -> common::Result<Tuple> {
                                  Tuple out = t;
                                  out.AppendValue(
                                      Value(t.value(0).AsInt() * 10));
                                  return out;
                                },
                                3, /*preserved_prefix=*/2);
  return (declare_reads ? annotated.Filter("keep", keep, /*reads_attrs=*/{0})
                        : annotated.Filter("keep", keep))
      .Window(WindowSpec::Tumbling(100))
      .GroupBy(0)
      .Sum("total", 1, uncertain::SumStrategyKind::kClt)
      .Sink("out");
}

TEST(PlannerTest, FilterPushdownPreservesResultsAndShrinksMapWork) {
  // Baseline: the same query with the filter declared without reads_attrs,
  // which the planner never pushes.
  auto run = [](bool declare_reads) {
    PlannerOptions opts;
    opts.num_shards = 1;
    auto compiled_or = PushdownQuery(declare_reads).Compile(opts);
    EXPECT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
    auto compiled = compiled_or.MoveValueUnsafe();
    EXPECT_EQ(compiled->summary().pushed_filters.size(),
              declare_reads ? 1u : 0u);
    EXPECT_TRUE(compiled
                    ->PushBatch(compiled->source("src"),
                                MakeKeyedGaussianStream(400))
                    .ok());
    EXPECT_TRUE(compiled->Finish().ok());
    uint64_t map_tuples_in = 0;
    for (const auto& m : compiled->MetricsSnapshot()) {
      if (m.name == "annotate") map_tuples_in = m.metrics.tuples_in;
    }
    return std::make_pair(compiled->TakeResult(compiled->sink("out")),
                          map_tuples_in);
  };
  PlannerOptions probe;
  probe.num_shards = 1;
  auto probe_or = PushdownQuery().Compile(probe);
  ASSERT_TRUE(probe_or.ok()) << probe_or.status().ToString();
  ASSERT_EQ(probe_or.value()->summary().pushed_filters.size(), 1u);
  EXPECT_EQ(probe_or.value()->summary().pushed_filters[0],
            (std::pair<std::string, std::string>{"keep", "annotate"}));

  auto [pushed, pushed_map_in] = run(true);
  auto [unpushed, unpushed_map_in] = run(false);
  ASSERT_FALSE(unpushed.empty());
  // Identical results (keys 0..3, so the even-key filter drops half)...
  EXPECT_EQ(Rendered(pushed), Rendered(unpushed));
  // ...but the map only ran on the tuples that survived the filter.
  EXPECT_EQ(unpushed_map_in, 400u);
  EXPECT_EQ(pushed_map_in, 200u);
  EXPECT_LT(pushed_map_in, unpushed_map_in);
}

TEST(PlannerTest, FilterPushdownNeedsDeclaredReadsAndPrefix) {
  // No declared read set -> opaque predicate -> no pushdown.
  auto opaque = Query::From("src", 2)
                    .Map("annotate",
                         [](const Tuple& t) -> common::Result<Tuple> {
                           return t;
                         },
                         3, /*preserved_prefix=*/2)
                    .Filter("keep", [](const Tuple&) { return true; })
                    .Sink("out")
                    .PartitionBy(stream::KeyByIntValue(0));
  auto opaque_or = opaque.Compile();
  ASSERT_TRUE(opaque_or.ok()) << opaque_or.status().ToString();
  EXPECT_TRUE(opaque_or.value()->summary().pushed_filters.empty());
  // Reads an appended attribute -> stays above the map.
  auto mapped_attr = Query::From("src", 2)
                         .Map("annotate",
                              [](const Tuple& t) -> common::Result<Tuple> {
                                return t;
                              },
                              3, /*preserved_prefix=*/2)
                         .Filter("keep", [](const Tuple&) { return true; },
                                 /*reads_attrs=*/{2})
                         .Sink("out")
                         .PartitionBy(stream::KeyByIntValue(0));
  auto mapped_or = mapped_attr.Compile();
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status().ToString();
  EXPECT_TRUE(mapped_or.value()->summary().pushed_filters.empty());
}

TEST(PlannerTest, SummaryToStringReportsAutoDecisions) {
  PlannerOptions opts;
  opts.hardware_concurrency_override = 2;
  auto compiled_or = PushdownQuery().Compile(opts);
  ASSERT_TRUE(compiled_or.ok()) << compiled_or.status().ToString();
  const std::string s = compiled_or.value()->summary().ToString();
  EXPECT_NE(s.find("[auto]"), std::string::npos) << s;
  EXPECT_NE(s.find("target batch auto"), std::string::npos) << s;
  EXPECT_NE(s.find("pushed below map"), std::string::npos) << s;
}

TEST(PlannerTest, UnknownSourceAndSinkNamesAreInvalid) {
  auto compiled_or = KeyedSumQuery(WindowSpec::Tumbling(100)).Compile();
  ASSERT_TRUE(compiled_or.ok());
  auto& compiled = *compiled_or.value();
  EXPECT_EQ(compiled.source("nope"), ExecGraph::kInvalidNode);
  EXPECT_EQ(compiled.sink("nope"), ExecGraph::kInvalidNode);
  EXPECT_FALSE(compiled.Push(ExecGraph::kInvalidNode, Tuple(0, {})).ok());
}

}  // namespace
}  // namespace query
}  // namespace usp
