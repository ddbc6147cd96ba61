#include "closed_loop.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <thread>

namespace ucbench {

using usp::stream::NodeMetrics;

namespace {

const NodeMetrics* Find(const std::vector<NodeMetrics>& snapshot,
                        const std::string& name) {
  if (name.empty()) return nullptr;
  // Sources appear twice in a sharded snapshot (the per-shard node and the
  // ingest entry appended after the plan nodes); the ingest entry is last.
  const NodeMetrics* found = nullptr;
  for (const NodeMetrics& m : snapshot) {
    if (m.name == name) found = &m;
  }
  return found;
}

}  // namespace

void ReadFinalMetrics(const std::vector<NodeMetrics>& snapshot,
                      const NodeNames& names, ProgramNumbers* out) {
  for (const NodeMetrics& m : snapshot) {
    out->all_nodes_busy_s += m.metrics.processing_seconds;
  }
  if (const NodeMetrics* m = Find(snapshot, names.map)) {
    out->map_busy_s = m->metrics.processing_seconds;
  }
  if (const NodeMetrics* m = Find(snapshot, names.agg)) {
    out->agg_busy_s = m->metrics.processing_seconds;
    out->agg_tuples_in = static_cast<double>(m->metrics.tuples_in);
    out->agg_batches_in = static_cast<double>(m->metrics.batches_in);
    out->grid_cache_hits = static_cast<double>(m->metrics.grid_cache_hits);
    out->grid_cache_misses = static_cast<double>(m->metrics.grid_cache_misses);
  }
  if (const NodeMetrics* m = Find(snapshot, names.dispatch)) {
    out->dispatch_busy_s = m->metrics.processing_seconds;
  }
  if (const NodeMetrics* m = Find(snapshot, names.source)) {
    out->push_block_s = m->metrics.producer_block_seconds;
    out->queue_peak_depth = static_cast<double>(m->metrics.queue_peak_depth);
  }
}

void GaugeSampler::Record(const std::vector<NodeMetrics>& snapshot,
                          int64_t newest_ts_us, ProgramNumbers* out) {
  double buffered = 0.0;
  for (const NodeMetrics& m : snapshot) {
    buffered += static_cast<double>(m.metrics.buffered_bytes);
  }
  out->buffered_bytes_peak = std::max(out->buffered_bytes_peak, buffered);
  if (const NodeMetrics* agg = Find(snapshot, names_.agg)) {
    if (agg->metrics.low_watermark != INT64_MIN) {
      out->watermark_lag_ms.push_back(
          static_cast<double>(newest_ts_us - agg->metrics.low_watermark) *
          1e-3);
    }
  }
}

void AddPlanFingerprint(const usp::query::PlanSummary& s,
                        const std::string& prefix, RunReport* report) {
  auto& fp = report->fingerprint;
  fp[prefix + "summary"] = s.ToString();
  fp[prefix + "shards"] = std::to_string(s.num_shards) +
                          (s.auto_num_shards ? " (auto)" : "");
  fp[prefix + "ingest_lanes"] = std::to_string(s.num_ingest_lanes) +
                                (s.auto_num_ingest_lanes ? " (auto)" : "");
  fp[prefix + "batch_target"] =
      s.auto_target_batch_size
          ? "auto, initial " + std::to_string(s.target_batch_size)
          : std::to_string(s.target_batch_size);
  fp[prefix + "pin_threads"] = std::string(s.pin_threads ? "on" : "off") +
                               (s.auto_pin_threads ? " (auto)" : "");
  fp[prefix + "watermark_period_us"] =
      std::to_string(s.watermark_period_us) +
      (s.auto_watermark_period ? " (auto)" : "");
  std::string paths;
  for (const auto& a : s.aggregates) {
    paths += (paths.empty() ? "" : ", ") + a.node_name + "=" +
             (a.paned ? "paned" : "naive");
  }
  fp[prefix + "aggregate_paths"] = paths;
  fp[prefix + "cf_grid_sharing"] = s.cf_grid_sharing ? "on" : "off";
  // The executor pins the first thread that pushes on a lane to core
  // (num_shards + lane) mod nproc and never unpins it. Recorded, not
  // changed: with as many shards as cores the pushing thread shares
  // shard 0's core.
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  fp[prefix + "producer_core"] =
      s.pin_threads ? std::to_string(s.num_shards % ncpu) : "unpinned";
}

PassResult RunPlanPass(
    const PassConfig& cfg, const usp::query::Query& plan,
    const std::string& source_name, const std::string& sink,
    const std::vector<usp::stream::TupleBatch>& batches, NodeNames names,
    const std::function<void(const usp::stream::TupleBatch&, PassResult*)>&
        check) {
  PassResult r;
  ScopedSpan pass_span(cfg.tracer, "bench.pass", cfg.index);
  usp::query::PlannerOptions popts;
  popts.num_shards = cfg.num_shards;
  const int64_t setup_start = SteadyNowNs();
  usp::common::Result<std::unique_ptr<usp::query::CompiledQuery>> compiled =
      usp::common::Status::Internal("not compiled");
  {
    ScopedSpan s(cfg.tracer, "query.compile", cfg.index);
    compiled = plan.Compile(popts);
  }
  r.setup_s = r.compile_s =
      static_cast<double>(SteadyNowNs() - setup_start) * 1e-9;
  ++r.requests;
  if (!compiled.ok()) {
    ++r.requests_failed;
    return r;
  }
  usp::query::CompiledQuery& q = *compiled.value();
  r.summary = q.summary();
  if (cfg.setup_only) return r;
  if (names.agg.empty() && !r.summary.aggregates.empty()) {
    names.agg = r.summary.aggregates.front().node_name;
  }
  const auto source = q.source(source_name);
  GaugeSampler sampler(cfg.tracer->enabled(), names, 5'000'000);
  const int64_t run_start = SteadyNowNs();
  for (size_t i = 0; i < batches.size(); ++i) {
    const int64_t t0 = SteadyNowNs();
    usp::common::Status st;
    {
      ScopedSpan s(cfg.tracer, "stream.push", static_cast<int64_t>(i));
      st = q.PushBatch(source, batches[i]);
    }
    const double ms = static_cast<double>(SteadyNowNs() - t0) * 1e-6;
    r.request_ms.push_back(ms);
    r.push_s += ms * 1e-3;
    ++r.requests;
    if (!st.ok()) {
      ++r.requests_failed;
      continue;
    }
    r.records += batches[i].size();
    sampler.Maybe(q, batches[i].MaxTimestamp(), &r.program);
  }
  const int64_t f0 = SteadyNowNs();
  usp::common::Status fst;
  {
    ScopedSpan s(cfg.tracer, "stream.finish", cfg.index);
    fst = q.Finish();
  }
  const int64_t f1 = SteadyNowNs();
  r.finish_s = static_cast<double>(f1 - f0) * 1e-9;
  r.run_s = static_cast<double>(f1 - run_start) * 1e-9;
  ++r.requests;
  if (!fst.ok()) ++r.requests_failed;
  r.program.target_batch_size =
      static_cast<double>(q.current_target_batch_size());
  ReadFinalMetrics(q.MetricsSnapshot(), names, &r.program);
  check(q.Result(sink), &r);
  return r;
}

void ReportLatencyExtras(const std::vector<double>& ms, RunReport* report) {
  const TailValue tail = TailPercentile(ms, 0.99);
  report->Extra("latency_p50_ms", Percentile(ms, 0.5), "ms");
  report->Extra("latency_p95_ms", Percentile(ms, 0.95), "ms");
  report->Extra("latency_p99_ms", tail.value, "ms");
  report->Extra("latency_tail_percentile", tail.percentile * 100.0, "%");
  report->Extra("latency_samples", static_cast<double>(tail.samples), "count");
  if (!tail.valid) report->Fail("too few latency samples for a tail");
}

double MedianOf(const std::vector<PassResult>& passes,
                const std::function<double(const PassResult&)>& get) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const PassResult& p : passes) v.push_back(get(p));
  return Median(std::move(v));
}

void AccountOracle(const OracleReport& oracle, const std::string& label,
                   RunReport* report) {
  report->attempted += oracle.expected + oracle.extra;
  for (size_t i = 0; i < oracle.failures(); ++i) {
    report->Fail(label + ": " +
                 (i < oracle.examples.size() ? oracle.examples[i]
                                             : std::string("(more)")));
  }
}

void ReportStreamLayers(const std::vector<PassResult>& tr, Tracer* tracer,
                        RunReport* report) {
  auto median = [&](double (*get)(const PassResult&)) {
    return MedianOf(tr, get);
  };
  report->Set("query.compile_s",
              median([](const PassResult& p) { return p.compile_s; }), "s");
  report->Set("stream.push_s",
              median([](const PassResult& p) { return p.push_s; }), "s");
  report->Set("stream.finish_s",
              median([](const PassResult& p) { return p.finish_s; }), "s");
  report->Set("stream.agg.busy_s",
              median([](const PassResult& p) { return p.program.agg_busy_s; }),
              "s");
  report->Set("stream.agg.tuples_per_batch", median([](const PassResult& p) {
                return p.program.agg_batches_in > 0.0
                           ? p.program.agg_tuples_in / p.program.agg_batches_in
                           : 0.0;
              }),
              "count");
  report->Set("stream.target_batch_size", median([](const PassResult& p) {
                return p.program.target_batch_size;
              }),
              "count");
  report->Set("stream.queue_peak_depth", median([](const PassResult& p) {
                return p.program.queue_peak_depth;
              }),
              "count");
  std::vector<double> lag;
  for (const PassResult& p : tr) {
    lag.insert(lag.end(), p.program.watermark_lag_ms.begin(),
               p.program.watermark_lag_ms.end());
  }
  report->Set("stream.watermark_lag_ms", TailPercentile(lag, 0.99).value,
              "ms");
  report->Set("stream.buffered_bytes_peak", median([](const PassResult& p) {
                return p.program.buffered_bytes_peak;
              }),
              "bytes");
  // Push and Finish spans have no children, so their self time is their
  // duration; the generator's own work between calls is the pass span's.
  const auto self = tracer->SelfSecondsByName();
  auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0
                            : it->second / static_cast<double>(tr.size());
  };
  report->Set("self.stream_s",
              self_of("stream.push") + self_of("stream.finish"), "s");
  report->Extra("self.bench_s", self_of("bench.pass"), "s");
  report->Extra("self.rfid_s", self_of("rfid.transform"), "s");
  report->Extra("self.query_s",
                self_of("query.compile") + self_of("query.subscribe"), "s");
  // Extras that exist only on some plans.
  report->Extra("stream.push_block_s", median([](const PassResult& p) {
                  return p.program.push_block_s;
                }),
                "s");
  report->Extra("stream.map.busy_s", median([](const PassResult& p) {
                  return p.program.map_busy_s;
                }),
                "s");
  report->Extra("stream.dispatch.busy_s", median([](const PassResult& p) {
                  return p.program.dispatch_busy_s;
                }),
                "s");
  report->Extra("stream.all_nodes.busy_s", median([](const PassResult& p) {
                  return p.program.all_nodes_busy_s;
                }),
                "s");
  const double hits =
      median([](const PassResult& p) { return p.program.grid_cache_hits; });
  const double misses =
      median([](const PassResult& p) { return p.program.grid_cache_misses; });
  if (hits + misses > 0.0) {
    report->Extra("stats.grid_cache_hit_ratio", hits / (hits + misses),
                  "fraction");
  }
}

ClosedLoopOutcome DriveClosedLoop(const Options& opt, const PassFn& pass,
                                  const char* record_unit, Tracer* tracer,
                                  RunReport* report) {
  ClosedLoopOutcome out;
  Tracer off(false);
  constexpr size_t kMinPasses = 3;
  constexpr size_t kMaxPasses = 400;
  // setup_s is the median of set-ups made in rounds, one round before
  // the first pass and one after every untraced pass, each set-up torn
  // down unused. One set-up takes about 0.1 ms, mostly starting and
  // pinning the shard threads, so its cost follows how the host schedules
  // the machine's cores at that moment; rounds spread over the whole run
  // make the median follow the run's average, as throughput does. The
  // first set-ups of a round (right after a pass tore down its threads and
  // freed its memory) cost several times more and are not sampled.
  constexpr int kSetupWarmup = 3;
  constexpr int kSetupsPerRound = 10;
  double measured_s = 0.0;
  auto account = [&](const PassResult& r, const char* kind) {
    measured_s += r.run_s;
    report->attempted += r.requests;
    for (uint64_t i = 0; i < r.requests_failed; ++i) {
      report->Fail(std::string(kind) + " pass: request failed");
    }
    AccountOracle(r.oracle, std::string(kind) + " pass oracle", report);
  };
  std::vector<double> setups;
  auto setup_round = [&] {
    for (int i = 0; i < kSetupWarmup + kSetupsPerRound; ++i) {
      PassConfig cfg;
      cfg.index = -1 - static_cast<int>(setups.size());
      cfg.tracer = &off;
      cfg.setup_only = true;
      const PassResult r = pass(cfg);
      report->attempted += r.requests;
      if (r.requests_failed > 0) report->Fail("set-up failed");
      if (i >= kSetupWarmup) setups.push_back(r.setup_s);
    }
  };
  setup_round();
  // Untraced runs measure auto-shard passes only. Traced runs alternate
  // untraced and traced passes (the untraced ones are the reference for
  // trace.overhead) and end with one-shard passes for stream.shard_scaling.
  for (int i = 0; static_cast<size_t>(i) < kMaxPasses; ++i) {
    const bool traced = opt.trace && (i % 2 == 1);
    const size_t done =
        opt.trace ? std::min(out.traced.size(), out.untraced.size())
                  : out.untraced.size();
    if (measured_s >= opt.seconds && done >= kMinPasses) break;
    PassConfig cfg;
    cfg.index = i;
    cfg.tracer = traced ? tracer : &off;
    PassResult r = pass(cfg);
    std::fprintf(stderr, "pass %d%s: %.4f s, %.0f records/s\n", i,
                 traced ? " (traced)" : "", r.run_s,
                 static_cast<double>(r.records) / r.run_s);
    account(r, traced ? "traced" : "untraced");
    (traced ? out.traced : out.untraced).push_back(std::move(r));
    if (!traced) setup_round();
  }
  if (opt.trace) {
    for (int i = 0; i < 2; ++i) {
      PassConfig cfg;
      cfg.index = 1000 + i;
      cfg.tracer = &off;
      cfg.num_shards = 1;
      PassResult r = pass(cfg);
      account(r, "one-shard");
      out.one_shard.push_back(std::move(r));
    }
  }
  if (!out.untraced.empty()) {
    AddPlanFingerprint(out.untraced.front().summary, "plan.", report);
  }

  auto rate = [](const PassResult& p) {
    return p.run_s > 0.0 ? static_cast<double>(p.records) / p.run_s : 0.0;
  };
  std::vector<double> request_ms;
  for (const PassResult& p : out.untraced) {
    request_ms.insert(request_ms.end(), p.request_ms.begin(),
                      p.request_ms.end());
  }
  ReportLatencyExtras(request_ms, report);
  report->Extra("passes", static_cast<double>(out.untraced.size()), "count");
  report->Extra("records_per_pass",
                static_cast<double>(out.untraced.front().records),
                record_unit);

  if (!opt.trace) {
    report->Set("throughput_rps", MedianOf(out.untraced, rate), "records/s");
    report->Set("setup_s", Median(setups), "s");
    return out;
  }

  ReportStreamLayers(out.traced, tracer, report);
  report->Set("stream.shard_scaling",
              MedianOf(out.untraced, rate) / MedianOf(out.one_shard, rate),
              "ratio");
  report->Set("trace.overhead",
              MedianOf(out.traced,
                       [](const PassResult& p) { return p.run_s; }) /
                  MedianOf(out.untraced,
                           [](const PassResult& p) { return p.run_s; }),
              "ratio");
  return out;
}

}  // namespace ucbench
