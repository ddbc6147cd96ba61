// alerts_open_loop: standing threshold alerts served from one multiplexed
// plan, open loop at a fixed offered rate.
//
//   template: source [key, temp ~ N(mu, sd^2)] -> tumbling 10 ms window
//             -> GroupBy(key) over 1024 Zipf(1.1) keys -> AVG via kClt
//   100k subscriptions (CompileMultiplexed): mostly exact-key with
//   round-number threshold/confidence, a few ranges and all-groups.
//
// The generator sends one small batch every 1 ms of wall time on an
// absolute schedule that never slows down; event time is the schedule
// time, so a window [s, s + W) can first be complete at the instant its
// end s + W was due. Each OnMatch callback is a result, and its latency is
// measured from that due instant — queue wait included, window length
// excluded. The aggregate math is near-free; lane merge buffering, the
// batch tuner, watermarks, window closure, predicate-index dispatch and
// the callbacks are what a result waits for.
#include <cstdlib>
#include <memory>
#include <mutex>

#include "closed_loop.h"
#include "generators.h"
#include "query/planner.h"
#include "query/query.h"
#include "query/subscription.h"
#include "replay.h"
#include "stats/gaussian.h"
#include "workloads.h"

namespace ucbench {

namespace {

using usp::query::PlannerOptions;
using usp::query::Query;
using usp::query::Subscription;
using usp::query::SubscriptionSet;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;

constexpr size_t kNumKeys = 1024;
constexpr double kZipfS = 1.1;
constexpr size_t kSubscriptions = 100'000;
constexpr int64_t kWindowUs = 10'000;
constexpr int64_t kPeriodUs = 1'000;  // one batch per ms
/// Offered load. The plan's closed-loop rate with these batches is about
/// 1.8M records/s on a 4-core Xeon VM; at half of that the generator, which
/// the executor pins to shard 0's core, falls behind by 150 ms, so the
/// open loop runs well below saturation (see NOTES.md).
constexpr double kOfferedRate = 200'000.0;
constexpr size_t kPerBatch =
    static_cast<size_t>(kOfferedRate * kPeriodUs / 1e6);
/// Windows ending in the first half second (a tenth of shorter schedules)
/// are excluded from latency (thread start-up, first-touch allocation);
/// they are still checked.
constexpr int64_t kWarmupUs = 500'000;
/// setup_s samples: rounds of set-ups before and after the schedule; the
/// first set-ups of a round (fresh heap, or memory just freed by the
/// schedule) run slower and are not sampled.
constexpr int kSetupWarmup = 1;
constexpr int kSetupsPerRound = 10;
/// Distinct subscription thresholds: the shared HAVING path probes each
/// once per row.
constexpr double kDistinctThresholds = 20.0;

Query TemplatePlan() {
  return Query::From("feed", 2)
      .Window(usp::stream::WindowSpec::Tumbling(kWindowUs))
      .GroupBy(0)
      .Avg("mean", 1, usp::uncertain::SumStrategyKind::kClt)
      .Sink("alerts");
}

/// OnMatch callbacks run on worker threads; each appends one entry under
/// a mutex (uncontended most of the time, a few tens of ns).
class MatchLog {
 public:
  struct Entry {
    int64_t window_end = 0;
    int64_t key = 0;
    uint64_t sub = 0;
    int64_t t_ns = 0;
  };
  void Record(const Tuple& row) {
    const int64_t now = SteadyNowNs();
    Entry e{row.timestamp(),
            std::strtoll(row.value(0).AsString().c_str(), nullptr, 10),
            static_cast<uint64_t>(row.value(row.num_values() - 1).AsInt()),
            now};
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(e);
  }
  std::vector<Entry> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(entries_);
  }

 private:
  std::mutex mu_;
  std::vector<Entry> entries_;
};

Subscription ToSubscription(const AlertSub& s,
                            const std::shared_ptr<MatchLog>& log) {
  Subscription sub = Subscription::AllGroups();
  if (s.kind == AlertSub::kKey) sub = Subscription::KeyEquals(Value(s.key));
  if (s.kind == AlertSub::kRange) sub = Subscription::KeyInRange(s.lo, s.hi);
  sub.Where(0, s.threshold, s.confidence);
  sub.OnMatch([log](const Tuple& row) { log->Record(row); });
  return sub;
}

/// The input stream of a seed. Every schedule and the oracle replay it
/// from the start.
ZipfGaussianStream Feed(uint64_t seed) {
  return ZipfGaussianStream(seed, kNumKeys, kZipfS);
}

/// Event-time end of the tumbling window holding batch `batch`.
int64_t WindowEndOfBatch(size_t batch) {
  return (static_cast<int64_t>(batch) * kPeriodUs / kWindowUs + 1) * kWindowUs;
}

/// The next batch of `feed`: batch `batch` of the schedule, its tuples'
/// event times spread over the batch's 1 ms.
TupleBatch BuildBatch(ZipfGaussianStream* feed, size_t batch) {
  TupleBatch out;
  out.Reserve(kPerBatch);
  for (size_t j = 0; j < kPerBatch; ++j) {
    const GaussRecord r = feed->Next();
    const int64_t ts = static_cast<int64_t>(batch) * kPeriodUs +
                       static_cast<int64_t>(j) * kPeriodUs /
                           static_cast<int64_t>(kPerBatch);
    out.Append(Tuple(ts, {Value(r.key),
                          Value(usp::stats::DistributionPtr(
                              std::make_shared<usp::stats::Gaussian>(r.mu,
                                                                     r.sd)))}));
  }
  return out;
}

/// Times of set-ups: registering the subscriptions, CompileMultiplexed,
/// and the two together (setup_s).
struct SetupTimes {
  std::vector<double> setup_s, compile_s, subscribe_s;
  uint64_t requests = 0, failed = 0;
};

/// One set-up: registers every subscription (its callback appends to
/// `log`) and compiles the multiplexed plan, timed into `times`. Null when
/// compiling fails.
std::unique_ptr<usp::query::MultiplexedQuery> SetUp(
    std::vector<AlertSub>* subs, const std::shared_ptr<MatchLog>& log,
    size_t num_shards, int index, Tracer* tracer, SetupTimes* times) {
  const int64_t s0 = SteadyNowNs();
  auto set = std::make_shared<SubscriptionSet>();
  {
    ScopedSpan s(tracer, "query.subscribe", index);
    for (AlertSub& sub : *subs) {
      sub.id = set->Subscribe(ToSubscription(sub, log));
    }
  }
  const int64_t s1 = SteadyNowNs();
  PlannerOptions popts;
  popts.num_shards = num_shards;
  std::unique_ptr<usp::query::MultiplexedQuery> mq;
  {
    ScopedSpan s(tracer, "query.compile", index);
    auto compiled = TemplatePlan().CompileMultiplexed(set, popts);
    ++times->requests;
    if (!compiled.ok()) {
      ++times->failed;
      return nullptr;
    }
    mq = compiled.MoveValueUnsafe();
  }
  const int64_t s2 = SteadyNowNs();
  times->subscribe_s.push_back(static_cast<double>(s1 - s0) * 1e-9);
  times->compile_s.push_back(static_cast<double>(s2 - s1) * 1e-9);
  times->setup_s.push_back(static_cast<double>(s2 - s0) * 1e-9);
  return mq;
}

struct ScheduleResult {
  SetupTimes setup;
  int64_t t0 = 0;
  double active_s = 0.0;  ///< schedule start until the last push returned
  double push_s = 0.0, finish_s = 0.0;
  uint64_t sent = 0, requests = 0, failed = 0;
  std::vector<int64_t> lateness_ns;
  std::vector<MatchLog::Entry> matches;
  std::vector<ErrorSample> samples;  ///< first rows of distinct groups
  ProgramNumbers program;
  usp::query::PlanSummary summary;
};

/// Sets the multiplexed plan up and sends `batches` batches — on the 1 ms
/// schedule when `open_loop`, else back to back as fast as backpressure
/// allows.
ScheduleResult RunSchedule(uint64_t seed, std::vector<AlertSub>* subs,
                           size_t batches, bool open_loop, size_t num_shards,
                           Tracer* tracer) {
  ScheduleResult res;
  ScopedSpan pass_span(tracer, "bench.pass", open_loop ? 0 : 1);
  const auto log = std::make_shared<MatchLog>();
  const std::unique_ptr<usp::query::MultiplexedQuery> mq =
      SetUp(subs, log, num_shards, 0, tracer, &res.setup);
  res.requests += res.setup.requests;
  if (mq == nullptr) {
    ++res.failed;
    return res;
  }
  res.summary = mq->summary();
  NodeNames names{"feed", "", "", ""};
  if (!res.summary.aggregates.empty()) {
    names.agg = res.summary.aggregates.front().node_name;
    names.dispatch = names.agg + "_dispatch";
  }
  const auto source = mq->source("feed");
  SteadyClock clock;
  GaugeSampler sampler(tracer->enabled(), names, 5'000'000);
  // The first batch is due 2 ms from now: time to build it.
  res.t0 = SteadyNowNs() + 2'000'000;
  OpenLoopSchedule schedule(&clock, res.t0, kPeriodUs * 1000);
  int64_t last_return = res.t0;
  // Closed loop pushes pre-built batches back to back, so the generator's
  // batch building is not part of the measured rate.
  ZipfGaussianStream feed = Feed(seed);
  std::vector<TupleBatch> prebuilt;
  if (!open_loop) {
    for (size_t i = 0; i < batches; ++i) {
      prebuilt.push_back(BuildBatch(&feed, i));
    }
    res.t0 = SteadyNowNs();
  }
  for (size_t i = 0; i < batches; ++i) {
    TupleBatch batch =
        open_loop ? BuildBatch(&feed, i) : std::move(prebuilt[i]);
    if (open_loop) schedule.WaitFor(i);
    const int64_t p0 = SteadyNowNs();
    usp::common::Status st;
    {
      ScopedSpan s(tracer, "stream.push", static_cast<int64_t>(i));
      st = mq->PushBatch(source, std::move(batch));
    }
    last_return = SteadyNowNs();
    res.push_s += static_cast<double>(last_return - p0) * 1e-9;
    ++res.requests;
    if (st.ok()) {
      res.sent += kPerBatch;
    } else {
      ++res.failed;
    }
    sampler.Maybe(*mq, static_cast<int64_t>(i + 1) * kPeriodUs, &res.program);
  }
  res.active_s = static_cast<double>(last_return - res.t0) * 1e-9;
  // End of input is due when the last window's end is: finishing earlier
  // would close it before it could be complete.
  if (open_loop) clock.SleepUntilNs(schedule.DueNs(batches));
  const int64_t f0 = SteadyNowNs();
  usp::common::Status fst;
  {
    ScopedSpan s(tracer, "stream.finish", 0);
    fst = mq->Finish();
  }
  res.finish_s = static_cast<double>(SteadyNowNs() - f0) * 1e-9;
  ++res.requests;
  if (!fst.ok()) ++res.failed;
  if (!open_loop) {
    res.active_s = static_cast<double>(SteadyNowNs() - res.t0) * 1e-9;
  }
  res.lateness_ns = schedule.lateness_ns();
  // MultiplexedQuery does not expose the live tuner value; this is the
  // planner's initial target.
  res.program.target_batch_size =
      static_cast<double>(res.summary.target_batch_size);
  ReadFinalMetrics(mq->MetricsSnapshot(), names, &res.program);
  res.matches = log->Take();
  // result_error sample: the emitted AVG of evenly spaced distinct groups.
  const TupleBatch& rows = mq->Result("alerts");
  std::vector<size_t> firsts;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].timestamp() != rows[i - 1].timestamp() ||
        !(rows[i].value(0) == rows[i - 1].value(0))) {
      firsts.push_back(i);
    }
  }
  std::map<GroupId, size_t> wanted;
  for (size_t i : EvenSample(firsts.size(), kErrorSampleRows)) {
    const Tuple& row = rows[firsts[i]];
    wanted[{row.timestamp(), row.value(0).AsString()}] = res.samples.size();
    ErrorSample s;
    s.emitted = row.value(1).AsDistribution();
    s.is_avg = true;
    res.samples.push_back(std::move(s));
  }
  ZipfGaussianStream replay = Feed(seed);
  for (size_t b = 0; b < batches && !wanted.empty(); ++b) {
    for (size_t j = 0; j < kPerBatch; ++j) {
      const GaussRecord r = replay.Next();
      auto it = wanted.find({WindowEndOfBatch(b), std::to_string(r.key)});
      if (it == wanted.end()) continue;
      ErrorSample& s = res.samples[it->second];
      s.owned.push_back(std::make_shared<usp::stats::Gaussian>(r.mu, r.sd));
      s.inputs.push_back(s.owned.back().get());
    }
  }
  return res;
}

}  // namespace

RunReport RunAlertsOpenLoop(const Options& opt, Tracer* tracer) {
  RunReport report;
  Tracer off(false);
  // Untraced: one schedule of --seconds. Traced: an untraced and a traced
  // schedule of half that each (the untraced one is trace.overhead's
  // reference), then closed-loop passes at auto and one shard for
  // stream.shard_scaling.
  const double schedule_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const size_t windows = std::max<size_t>(
      2,
      static_cast<size_t>(schedule_s * 1e6 / static_cast<double>(kWindowUs)));
  const size_t batches = windows * static_cast<size_t>(kWindowUs / kPeriodUs);
  std::vector<AlertSub> subs =
      MakeAlertSubs(opt.seed, kSubscriptions, kNumKeys);

  // Expected matches, one window at a time while replaying the feed.
  const AlertSubIndex sub_index(subs);
  ExpectedMatches expected;
  size_t groups_total = 0;
  {
    ZipfGaussianStream feed = Feed(opt.seed);
    std::vector<GroupMoments> window(kNumKeys);
    for (size_t b = 0; b < batches; ++b) {
      for (size_t j = 0; j < kPerBatch; ++j) {
        const GaussRecord r = feed.Next();
        window[static_cast<size_t>(r.key)].Add(r.mu, r.sd * r.sd);
      }
      if (b + 1 == batches || WindowEndOfBatch(b + 1) != WindowEndOfBatch(b)) {
        for (const GroupMoments& g : window) groups_total += g.count > 0;
        ExpectAvgMatches(WindowEndOfBatch(b), window, sub_index, 1e-9,
                         &expected);
        window.assign(kNumKeys, GroupMoments());
      }
    }
  }
  auto check = [&](const ScheduleResult& res, const char* label) {
    report.attempted += res.requests;
    for (uint64_t i = 0; i < res.failed; ++i) {
      report.Fail(std::string(label) + ": request failed");
    }
    std::vector<Match> actual;
    actual.reserve(res.matches.size());
    for (const MatchLog::Entry& e : res.matches) {
      actual.push_back({e.window_end, e.key, e.sub});
    }
    AccountOracle(CheckMatches(expected, actual), label, &report);
  };
  // Latency of each match from the due instant of its window's end. The
  // last window closes at Finish(), not by data, and is left out too.
  const int64_t last_window_end = WindowEndOfBatch(batches - 1);
  const int64_t warmup_us = std::min<int64_t>(kWarmupUs, last_window_end / 10);
  auto latencies = [&](const ScheduleResult& res) {
    std::vector<double> ms;
    ms.reserve(res.matches.size());
    for (const MatchLog::Entry& e : res.matches) {
      if (e.window_end <= warmup_us || e.window_end >= last_window_end) {
        continue;
      }
      const int64_t due_ns = res.t0 + e.window_end * 1000;
      ms.push_back(static_cast<double>(e.t_ns - due_ns) * 1e-6);
    }
    return ms;
  };

  // setup_s: one set-up costs ~0.1 s of allocation-heavy work whose speed
  // follows the host, so it is sampled before and after the schedule and
  // the median follows the run's average, as the other metrics do.
  SetupTimes sampled;
  auto setup_round = [&] {
    for (int i = 0; i < kSetupWarmup + kSetupsPerRound; ++i) {
      SetupTimes t;
      SetUp(&subs, std::make_shared<MatchLog>(), PlannerOptions::kAutoShards,
            -1 - i, &off, &t);
      report.attempted += t.requests;
      if (t.failed > 0) report.Fail("set-up failed");
      if (i < kSetupWarmup) continue;
      sampled.setup_s.insert(sampled.setup_s.end(), t.setup_s.begin(),
                             t.setup_s.end());
      sampled.subscribe_s.insert(sampled.subscribe_s.end(),
                                 t.subscribe_s.begin(), t.subscribe_s.end());
    }
  };
  if (!opt.trace) setup_round();
  const ScheduleResult main_run = RunSchedule(
      opt.seed, &subs, batches, true, PlannerOptions::kAutoShards, &off);
  if (!opt.trace) setup_round();
  check(main_run, "open-loop schedule");
  AddPlanFingerprint(main_run.summary, "plan.", &report);
  const std::vector<double> lat = latencies(main_run);
  ReportLatencyExtras(lat, &report);
  std::vector<double> lateness_ms;
  for (int64_t ns : main_run.lateness_ns) {
    lateness_ms.push_back(static_cast<double>(ns) * 1e-6);
  }
  const double achieved =
      main_run.active_s > 0.0
          ? static_cast<double>(main_run.sent) / main_run.active_s
          : 0.0;
  report.Extra("offered_rate", kOfferedRate, "records/s");
  report.Extra("achieved_rate", achieved, "records/s");
  report.Extra("gen_lateness_p99_ms", TailPercentile(lateness_ms, 0.99).value,
               "ms");
  report.Extra("matches", static_cast<double>(main_run.matches.size()),
               "count");

  if (!opt.trace) {
    report.Extra("query.subscribe_s", Median(sampled.subscribe_s), "s");
    report.Set("throughput_rps", achieved, "records/s");
    report.Set("setup_s", Median(sampled.setup_s), "s");
    report.Set("result_error",
               ResultError(main_run.samples, ReferenceGridPoints()),
               "distance");
    return report;
  }

  const ScheduleResult traced = RunSchedule(
      opt.seed, &subs, batches, true, PlannerOptions::kAutoShards, tracer);
  check(traced, "traced schedule");
  report.Extra("query.subscribe_s", Median(traced.setup.subscribe_s), "s");
  const std::vector<double> traced_lat = latencies(traced);
  // Result spans: one per (window, key) row that alerted, from the instant
  // its window end was due to its first callback. The request id is the
  // sequence number of the batch due at that instant.
  std::map<std::pair<int64_t, int64_t>, int64_t> first_callback;
  for (const MatchLog::Entry& e : traced.matches) {
    auto [it, inserted] =
        first_callback.try_emplace({e.window_end, e.key}, e.t_ns);
    if (!inserted) it->second = std::min(it->second, e.t_ns);
  }
  for (const auto& [row, t_ns] : first_callback) {
    Tracer::Span span;
    span.name = "result";
    span.start_ns = traced.t0 + row.first * 1000;
    span.end_ns = t_ns;
    span.request = row.first / kPeriodUs;
    span.arg0 = row.first - kWindowUs;
    span.arg1 = row.second;
    tracer->Add(span);
  }
  const size_t closed_batches = std::min<size_t>(batches, 2000);
  const ScheduleResult closed = RunSchedule(
      opt.seed, &subs, closed_batches, false, PlannerOptions::kAutoShards,
      &off);
  const ScheduleResult closed1 =
      RunSchedule(opt.seed, &subs, closed_batches, false, 1, &off);
  for (const ScheduleResult* r : {&closed, &closed1}) {
    report.attempted += r->requests;
    for (uint64_t i = 0; i < r->failed; ++i) {
      report.Fail("closed-loop pass failed");
    }
  }
  auto rate = [](const ScheduleResult& r) {
    return r.active_s > 0.0 ? static_cast<double>(r.sent) / r.active_s : 0.0;
  };
  report.Extra("closed_loop_rate", rate(closed), "records/s");
  PassResult traced_pass;
  traced_pass.compile_s = Median(traced.setup.compile_s);
  traced_pass.push_s = traced.push_s;
  traced_pass.finish_s = traced.finish_s;
  traced_pass.program = traced.program;
  ReportStreamLayers({traced_pass}, tracer, &report);
  report.Set("stream.shard_scaling", rate(closed) / rate(closed1), "ratio");
  report.Set("trace.overhead",
             Percentile(traced_lat, 0.5) / Percentile(lat, 0.5), "ratio");

  std::vector<Group> sample_groups;
  for (const ErrorSample& s : traced.samples) sample_groups.push_back(s.inputs);
  const KernelCosts costs = ReplayKernels(
      sample_groups, PlannerOptions().cf_grid_points, 50.0, false, tracer);
  ReportKernelCosts(costs, &report);
  // The plan's kernel calls per schedule: one CLT AVG per (window, key)
  // group and up to one probe per distinct threshold on each row.
  ReportKernelSplit(
      static_cast<double>(groups_total) *
          (costs.sum_clt_us + kDistinctThresholds * costs.prob_greater_us) *
          1e-6,
      traced.program.all_nodes_busy_s, &report);
  return report;
}

}  // namespace ucbench
