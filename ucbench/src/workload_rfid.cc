// rfid_fire_code: the paper's first component — particle-filter inference
// and KL conversion of raw RFID readings into location tuples — feeding
// examples/fire_code_monitoring's Q1, closed loop.
//
// Raw readings of a warehouse with thousands of tagged objects are
// simulated before timing. The timed region runs, per reading, what a
// reader daemon would: RfidTransformOperator::ProcessReadingBatch on the
// generator thread, then PushBatch of its location tuples into
//
//   Map: area = 10 ft cell of the expected location, weight = the tag's
//        weight (a Gaussian with a 2% scale uncertainty)
//   -> 5 s tumbling window -> GroupBy(area) -> SUM(weight) via kCfApprox
//   -> HAVING P(sum > 200 lb) >= 0.5
//
// The T operator dominates; the query downstream is light. The oracle
// recomputes each (window, area) sum from the batches the benchmark
// pushed.
#include <memory>

#include "closed_loop.h"
#include "query/planner.h"
#include "query/query.h"
#include "replay.h"
#include "rfid/model.h"
#include "rfid/transform_operator.h"
#include "stats/gaussian.h"
#include "uncertain/aggregates.h"
#include "workloads.h"

namespace ucbench {

namespace {

using usp::query::PlannerOptions;
using usp::query::Query;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr size_t kObjects = 2000;
constexpr size_t kReadingsPerPass = 960;  // eight simulated minutes
constexpr int64_t kWindowUs = 5'000'000;
constexpr double kHavingThreshold = 200.0;

usp::rfid::WarehouseConfig Warehouse(uint64_t seed) {
  usp::rfid::WarehouseConfig config;
  config.width_ft = 200.0;
  config.height_ft = 200.0;
  config.shelf_rows = 20;
  config.shelf_cols = 20;
  config.num_objects = kObjects;
  config.seed = seed * 0x9e3779b97f4a7c15ULL + 5;
  return config;
}

/// GROUP BY key: the 10 ft grid cell of a location tuple's expected
/// position (the example's area function).
std::string AreaOf(const Tuple& t) {
  const int cx = static_cast<int>(t.value(1).AsDistribution()->Mean() / 10.0);
  const int cy = static_cast<int>(t.value(2).AsDistribution()->Mean() / 10.0);
  return "area_" + std::to_string(cx) + "_" + std::to_string(cy);
}

}  // namespace

RunReport RunRfidFireCode(const Options& opt, Tracer* tracer) {
  RunReport report;
  const usp::rfid::WarehouseConfig config = Warehouse(opt.seed);
  std::vector<usp::rfid::Reading> readings;
  std::vector<usp::rfid::Point2> shelves;
  {
    usp::rfid::WarehouseSimulator sim(config);
    shelves = sim.shelf_positions();
    for (size_t i = 0; i < kReadingsPerPass; ++i) {
      readings.push_back(sim.Step());
    }
  }
  // Heavy pallets every seventh tag, as in the example; each weight
  // carries a 2% scale uncertainty.
  std::vector<usp::stats::DistributionPtr> weight_by_tag(kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    const double w = (i % 7 == 0) ? 120.0 : 25.0;
    weight_by_tag[i] = std::make_shared<usp::stats::Gaussian>(w, 0.02 * w);
  }
  const Query plan =
      Query::From("rfid_stream", 3)
          .Map("annotate_area_weight",
               [&weight_by_tag](const Tuple& t) -> usp::common::Result<Tuple> {
                 Tuple out = t;
                 out.AppendValue(Value(AreaOf(t)));
                 const auto tag = static_cast<size_t>(t.value(0).AsInt());
                 out.AppendValue(Value(weight_by_tag[tag]));
                 return out;
               },
               5)
          .Window(usp::stream::WindowSpec::Tumbling(kWindowUs))
          .GroupBy(3)
          .Sum("total_weight", 4, usp::uncertain::SumStrategyKind::kCfApprox)
          .Having(
              usp::uncertain::MakeHavingProbGreater(1, kHavingThreshold, 0.5))
          .Sink("alerts");
  const NodeNames names{"rfid_stream", "annotate_area_weight",
                        "total_weight_agg", ""};
  auto decide = [](const GroupMoments& g) {
    return GaussianHaving(g, kHavingThreshold, 0.5, 1e-9);
  };
  const Tolerance tol{0.0, 1e-7, 1e-6};
  usp::rfid::RfidTransformOperator::Options t_opts;
  t_opts.filter.particles_per_object = 64;
  std::vector<double> transform_us;
  std::vector<double> payload_bytes, tuples_per_reading;
  std::vector<ErrorSample> samples;
  size_t groups_per_pass = 0;

  auto pass = [&](const PassConfig& cfg) {
    PassResult r;
    ScopedSpan pass_span(cfg.tracer, "bench.pass", cfg.index);
    const int64_t setup_start = SteadyNowNs();
    std::unique_ptr<usp::rfid::RfidTransformOperator> t_op;
    {
      ScopedSpan s(cfg.tracer, "rfid.construct", cfg.index);
      t_op = std::make_unique<usp::rfid::RfidTransformOperator>(
          config.num_objects, shelves, config.sensing, t_opts);
    }
    PlannerOptions popts;
    popts.num_shards = cfg.num_shards;
    usp::common::Result<std::unique_ptr<usp::query::CompiledQuery>> compiled =
        usp::common::Status::Internal("not compiled");
    const int64_t compile_start = SteadyNowNs();
    {
      ScopedSpan s(cfg.tracer, "query.compile", cfg.index);
      compiled = plan.Compile(popts);
    }
    const int64_t setup_end = SteadyNowNs();
    r.setup_s = static_cast<double>(setup_end - setup_start) * 1e-9;
    r.compile_s = static_cast<double>(setup_end - compile_start) * 1e-9;
    ++r.requests;
    if (!compiled.ok()) {
      ++r.requests_failed;
      return r;
    }
    usp::query::CompiledQuery& q = *compiled.value();
    r.summary = q.summary();
    if (cfg.setup_only) return r;
    const auto source = q.source("rfid_stream");
    GaugeSampler sampler(cfg.tracer->enabled(), names, 5'000'000);
    // (timestamp, tag, expected x, expected y) of every pushed tuple, for
    // the oracle after the pass.
    struct Pushed {
      int64_t ts;
      int64_t tag;
      double x, y;
    };
    std::vector<Pushed> pushed;
    uint64_t tuples = 0;
    const int64_t run_start = SteadyNowNs();
    for (size_t i = 0; i < readings.size(); ++i) {
      const auto request = static_cast<int64_t>(i);
      const int64_t t0 = SteadyNowNs();
      ScopedSpan request_span(cfg.tracer, "rfid.request", request);
      usp::common::Result<TupleBatch> batch = TupleBatch();
      {
        ScopedSpan s(cfg.tracer, "rfid.transform", request);
        batch = t_op->ProcessReadingBatch(readings[i]);
      }
      const int64_t t1 = SteadyNowNs();
      ++r.requests;
      if (!batch.ok()) {
        ++r.requests_failed;
        continue;
      }
      // What the oracle needs from this batch, before the program owns it.
      for (const Tuple& t : batch.value()) {
        pushed.push_back({t.timestamp(), t.value(0).AsInt(),
                          t.value(1).AsDistribution()->Mean(),
                          t.value(2).AsDistribution()->Mean()});
      }
      tuples += batch.value().size();
      const int64_t t2 = SteadyNowNs();
      usp::common::Status st;
      {
        ScopedSpan s(cfg.tracer, "stream.push", request);
        st = q.PushBatch(source, batch.MoveValueUnsafe());
      }
      const int64_t t3 = SteadyNowNs();
      // The request is the reader daemon's: transform plus push.
      r.request_ms.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-6);
      r.push_s += static_cast<double>(t3 - t2) * 1e-9;
      transform_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (!st.ok()) {
        ++r.requests_failed;
        continue;
      }
      ++r.records;
      sampler.Maybe(q, static_cast<int64_t>(readings[i].time_s * 1e6),
                    &r.program);
    }
    const int64_t f0 = SteadyNowNs();
    usp::common::Status fst;
    {
      ScopedSpan s(cfg.tracer, "stream.finish", cfg.index);
      fst = q.Finish();
    }
    const int64_t f1 = SteadyNowNs();
    r.finish_s = static_cast<double>(f1 - f0) * 1e-9;
    ++r.requests;
    if (!fst.ok()) ++r.requests_failed;
    r.program.target_batch_size =
        static_cast<double>(q.current_target_batch_size());
    ReadFinalMetrics(q.MetricsSnapshot(), names, &r.program);
    payload_bytes.push_back(static_cast<double>(t_op->payload_bytes_emitted()));
    tuples_per_reading.push_back(static_cast<double>(tuples) /
                                 static_cast<double>(readings.size()));
    r.run_s = static_cast<double>(f1 - run_start) * 1e-9;
    ExpectedGroups expected;
    std::vector<std::pair<GroupId, const usp::stats::Distribution*>> inputs;
    for (const Pushed& p : pushed) {
      const auto& w = weight_by_tag[static_cast<size_t>(p.tag)];
      const GroupId id{(p.ts / kWindowUs + 1) * kWindowUs,
                       "area_" + std::to_string(static_cast<int>(p.x / 10.0)) +
                           "_" + std::to_string(static_cast<int>(p.y / 10.0))};
      expected[id].Add(w->Mean(), w->Variance());
      inputs.push_back({id, w.get()});
    }
    const TupleBatch& out = q.Result("alerts");
    std::vector<AggRow> rows;
    rows.reserve(out.size());
    for (const Tuple& row : out) rows.push_back(ToAggRow(row, 1));
    r.oracle = CheckAggRows(expected, rows, tol, decide);
    if (cfg.index == 0) {
      groups_per_pass = expected.size();
      std::map<GroupId, size_t> wanted;
      for (size_t k : EvenSample(out.size(), kErrorSampleRows)) {
        const AggRow row = ToAggRow(out[k], 1);
        wanted[{row.window_end, row.key}] = samples.size();
        samples.push_back({out[k].value(1).AsDistribution(), {}, false, {}});
      }
      for (const auto& [id, w] : inputs) {
        auto it = wanted.find(id);
        if (it != wanted.end()) samples[it->second].inputs.push_back(w);
      }
    }
    return r;
  };

  const ClosedLoopOutcome outcome =
      DriveClosedLoop(opt, pass, "readings", tracer, &report);
  report.Extra("rfid.transform_us", Median(transform_us), "us");
  report.Extra("rfid.transform_p99_us",
               TailPercentile(transform_us, 0.99).value, "us");
  report.Extra("rfid.tuples_per_reading", Median(tuples_per_reading), "count");
  report.Extra("rfid.payload_bytes", Median(payload_bytes), "bytes");
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
  // One CF-approx SUM and one HAVING probe per (window, area) group.
  ReportKernelSplit(static_cast<double>(groups_per_pass) *
                        (costs.sum_cf_approx_us + costs.prob_greater_us) * 1e-6,
                    MedianOf(outcome.traced, [](const PassResult& p) {
                      return p.program.all_nodes_busy_s;
                    }),
                    &report);
  return report;
}

}  // namespace ucbench
