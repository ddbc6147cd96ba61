// q1_keyed_sum: the paper's Q1 over uncertain tuples, closed loop.
//
//   source [key, weight ~ N(mu, sd^2)]
//     -> Map annotate: append P(weight > 5) (prefix [key, weight] kept)
//     -> tumbling window -> GroupBy(key) over 4096 uniform keys
//     -> SUM(weight) via kCfApprox -> HAVING P(sum > 88) >= 0.5
//
// The stats math is near-free (one CF product per group), so the stream
// layer — ingest partition and map replay, ring transit, window state,
// tuple copies, the sink merge — does almost all the work.
#include <memory>

#include "closed_loop.h"
#include "generators.h"
#include "query/planner.h"
#include "query/query.h"
#include "replay.h"
#include "stats/gaussian.h"
#include "uncertain/aggregates.h"
#include "uncertain/selection.h"
#include "workloads.h"

namespace ucbench {

namespace {

using usp::query::PlannerOptions;
using usp::query::Query;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr int64_t kNumKeys = 4096;
constexpr size_t kTuplesPerPass = size_t{1} << 19;
constexpr int64_t kTsStepUs = 1;
constexpr int64_t kWindowUs = kNumKeys * 16 * kTsStepUs;  // ~16 per key
constexpr size_t kCallerBatch = 512;
constexpr double kHavingThreshold = 88.0;  // ~ 16 * E[mu]
constexpr double kAnnotateCut = 5.0;

Query Q1Plan() {
  return Query::From("readings", 2)
      .Map(
          "annotate",
          [](const Tuple& t) -> usp::common::Result<Tuple> {
            Tuple out = t;
            out.AppendValue(Value(usp::uncertain::PredicateProbability(
                t.value(1), usp::uncertain::PredicateOp::kGreaterThan,
                kAnnotateCut)));
            return out;
          },
          /*output_arity=*/3, /*preserved_prefix=*/2)
      .Window(usp::stream::WindowSpec::Tumbling(kWindowUs))
      .GroupBy(0)
      .Sum("total", 1, usp::uncertain::SumStrategyKind::kCfApprox)
      .Having(usp::uncertain::MakeHavingProbGreater(1, kHavingThreshold, 0.5))
      .Sink("alerts");
}

}  // namespace

RunReport RunQ1KeyedSum(const Options& opt, Tracer* tracer) {
  RunReport report;
  const std::vector<GaussRecord> records =
      MakeKeyedGaussians(opt.seed, kTuplesPerPass, kNumKeys, kTsStepUs);
  ExpectedGroups expected;
  std::vector<Tuple> tuples;
  tuples.reserve(records.size());
  for (const GaussRecord& r : records) {
    const int64_t start = WindowStarts(r.ts_us, kWindowUs, kWindowUs)[0];
    expected[{start + kWindowUs,
              usp::stream::CanonicalKeyString(Value(r.key))}]
        .Add(r.mu, r.sd * r.sd);
    Tuple t(r.ts_us,
            {Value(r.key), Value(usp::stats::DistributionPtr(
                               std::make_shared<usp::stats::Gaussian>(r.mu,
                                                                      r.sd)))});
    t.InitBaseLineage();
    tuples.push_back(std::move(t));
  }
  const std::vector<TupleBatch> batches =
      Slice(std::move(tuples), kCallerBatch);
  const Query plan = Q1Plan();
  const NodeNames names{"readings", "annotate", "total_agg", ""};
  auto decide = [](const GroupMoments& g) {
    return GaussianHaving(g, kHavingThreshold, 0.5, 1e-9);
  };
  // Exact to ~1e-9: CF-approx of a Gaussian sum is the Gaussian itself.
  const Tolerance tol{0.0, 1e-7, 1e-6};
  // result_error and the kernel replay share one evenly spaced sample of
  // the first pass's emitted groups.
  std::vector<ErrorSample> samples;

  auto pass = [&](const PassConfig& cfg) {
    return RunPlanPass(
        cfg, plan, "readings", "alerts", batches, names,
        [&](const TupleBatch& out, PassResult* r) {
          std::vector<AggRow> rows;
          rows.reserve(out.size());
          for (const Tuple& row : out) rows.push_back(ToAggRow(row, 1));
          r->oracle = CheckAggRows(expected, rows, tol, decide);
          if (cfg.index == 0) {
            samples = SampleGroups(out.tuples(), batches, kWindowUs,
                                   kWindowUs, kErrorSampleRows);
          }
        });
  };

  const ClosedLoopOutcome outcome =
      DriveClosedLoop(opt, pass, "records", tracer, &report);

  if (!opt.trace) {
    report.Set("result_error", ResultError(samples, ReferenceGridPoints()),
               "distance");
    return report;
  }
  std::vector<Group> groups;
  for (const ErrorSample& s : samples) groups.push_back(s.inputs);
  const KernelCosts costs = ReplayKernels(
      groups, PlannerOptions().cf_grid_points, kHavingThreshold, false, tracer);
  ReportKernelCosts(costs, &report);
  // The plan's kernel calls per pass: one CF-approx SUM and one HAVING
  // probe per (window, key) group.
  const double groups_per_pass = static_cast<double>(expected.size());
  ReportKernelSplit(
      groups_per_pass * (costs.sum_cf_approx_us + costs.prob_greater_us) * 1e-6,
      MedianOf(outcome.traced, [](const PassResult& p) {
                      return p.program.all_nodes_busy_s;
                    }),
      &report);
  return report;
}

}  // namespace ucbench
