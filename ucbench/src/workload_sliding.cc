// sliding_cf_inversion: Table 2's exact row on overlapping windows, closed
// loop.
//
//   source [key, reading ~ sensor model]
//     -> sliding window (size = 4 x slide, the paned path)
//     -> GroupBy(key) over 256 uniform keys
//     -> SUM and AVG via kCfInversion
//
// Readings come from a mixed sensor-model population (Gaussian, 2-3
// component GMM, gamma, uniform); half reuse one of 32 shared
// parameterisations, the rest are unique, so the per-shard CF grid cache
// both hits and misses. The stats kernels (CfGrid, ProductCfGrid, FFT
// inversion) and the uncertain pane aggregates dominate; the stream layer
// does little. Answer quality (result_error) is measured on this row.
#include <memory>

#include "closed_loop.h"
#include "generators.h"
#include "query/planner.h"
#include "query/query.h"
#include "replay.h"
#include "workloads.h"

namespace ucbench {

namespace {

using usp::query::PlannerOptions;
using usp::query::Query;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr int64_t kNumKeys = 256;
constexpr size_t kTuplesPerPass = size_t{1} << 15;
constexpr int64_t kTsStepUs = 1;
constexpr int64_t kSlideUs = kNumKeys * 16 * kTsStepUs;  // ~16 per key
constexpr int64_t kWindowUs = 4 * kSlideUs;
constexpr size_t kCallerBatch = 128;
constexpr double kSharedShare = 0.5;
constexpr size_t kNumShared = 32;
constexpr double kProbeThreshold = 320.0;  // ~ 64 readings * E[reading]

Query SlidingPlan() {
  return Query::From("sensors", 2)
      .Window(usp::stream::WindowSpec::Sliding(kWindowUs, kSlideUs))
      .GroupBy(0)
      .Sum("total", 1, usp::uncertain::SumStrategyKind::kCfInversion)
      .Avg("mean", 1, usp::uncertain::SumStrategyKind::kCfInversion)
      .Sink("out");
}

}  // namespace

RunReport RunSlidingCfInversion(const Options& opt, Tracer* tracer) {
  RunReport report;
  const SensorPopulation pop = MakeSensorPopulation(
      opt.seed, kTuplesPerPass, kNumKeys, kTsStepUs, kSharedShare, kNumShared);
  std::vector<usp::stats::DistributionPtr> shared;
  for (const SensorModel& m : pop.shared_models) shared.push_back(m.Build());

  ExpectedGroups expected_sum;
  std::vector<Tuple> tuples;
  tuples.reserve(pop.records.size());
  for (const SensorRecord& r : pop.records) {
    usp::stats::DistributionPtr d =
        r.shared >= 0 ? shared[static_cast<size_t>(r.shared)] : r.model.Build();
    const std::string key = usp::stream::CanonicalKeyString(Value(r.key));
    for (int64_t start : WindowStarts(r.ts_us, kWindowUs, kSlideUs)) {
      expected_sum[{start + kWindowUs, key}].Add(d->Mean(), d->Variance());
    }
    Tuple t(r.ts_us, {Value(r.key), Value(std::move(d))});
    t.InitBaseLineage();
    tuples.push_back(std::move(t));
  }
  ExpectedGroups expected_avg = expected_sum;
  for (auto& [id, g] : expected_avg) {
    const double n = static_cast<double>(g.count);
    g.mean /= n;
    g.var /= n * n;
  }
  const std::vector<TupleBatch> batches =
      Slice(std::move(tuples), kCallerBatch);
  const Query plan = SlidingPlan();
  const NodeNames names{"sensors", "", "", ""};
  // A 1024-bin density over mean +- 8 sd resolves the mean to a small
  // share of the sd and the variance to a few percent.
  const Tolerance tol{0.02, 1e-9, 0.03};
  // result_error and the kernel replay share one evenly spaced sample of
  // the first pass's emitted groups.
  std::vector<ErrorSample> samples;

  auto pass = [&](const PassConfig& cfg) {
    return RunPlanPass(
        cfg, plan, "sensors", "out", batches, names,
        [&](const TupleBatch& out, PassResult* r) {
          std::vector<AggRow> sums, avgs;
          sums.reserve(out.size());
          avgs.reserve(out.size());
          for (const Tuple& row : out) {
            sums.push_back(ToAggRow(row, 1));
            avgs.push_back(ToAggRow(row, 2));
          }
          r->oracle = CheckAggRows(expected_sum, sums, tol, nullptr);
          const OracleReport avg_oracle =
              CheckAggRows(expected_avg, avgs, tol, nullptr);
          r->oracle.wrong += avg_oracle.wrong;
          for (const std::string& e : avg_oracle.examples) {
            r->oracle.Note("avg " + e);
          }
          if (cfg.index == 0) {
            samples = SampleGroups(out.tuples(), batches, kWindowUs,
                                   kSlideUs, kErrorSampleRows);
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
      groups, PlannerOptions().cf_grid_points, kProbeThreshold, true, tracer);
  ReportKernelCosts(costs, &report);
  // The paned plan's kernel calls per pass, for each of its two columns:
  // one CfGrid per reading that misses the shared-grid cache, and one
  // product-grid inversion per (window, key) group.
  const double hits = MedianOf(outcome.traced, [](const PassResult& p) {
    return p.program.grid_cache_hits;
  });
  const double misses = MedianOf(outcome.traced, [](const PassResult& p) {
    return p.program.grid_cache_misses;
  });
  const double miss_ratio =
      hits + misses > 0.0 ? misses / (hits + misses) : 1.0;
  const double groups_per_pass = static_cast<double>(expected_sum.size());
  ReportKernelSplit(2.0 *
                        (groups_per_pass * costs.invert_us +
                         static_cast<double>(kTuplesPerPass) * miss_ratio *
                             costs.cf_grid_us) *
                        1e-6,
                    MedianOf(outcome.traced, [](const PassResult& p) {
                      return p.program.all_nodes_busy_s;
                    }),
                    &report);
  return report;
}

}  // namespace ucbench
