// The closed-loop pass loop shared by q1_keyed_sum, sliding_cf_inversion
// and rfid_fire_code, plus the helpers every workload uses to read the
// program's public metrics: a pass runs set-up (timed as setup_s), pushes
// every input as fast as backpressure allows, calls Finish(), and checks
// the output with the workload's oracle. Passes repeat until --seconds of
// pushing have been measured; metrics are medians over passes.
#ifndef UCBENCH_CLOSED_LOOP_H_
#define UCBENCH_CLOSED_LOOP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "oracles.h"
#include "query/planner.h"
#include "query/query.h"
#include "stream/exec_graph.h"

namespace ucbench {

/// Names of the plan nodes whose metrics the benchmark reads.
struct NodeNames {
  std::string source;
  std::string map;       ///< empty when the plan has no map
  std::string agg;
  std::string dispatch;  ///< empty unless multiplexed
};

/// Program-side numbers of one pass, read through MetricsSnapshot():
/// totals after Finish() plus gauges sampled while pushing.
struct ProgramNumbers {
  double map_busy_s = 0.0;
  double agg_busy_s = 0.0;
  double dispatch_busy_s = 0.0;
  double all_nodes_busy_s = 0.0;
  double push_block_s = 0.0;
  double queue_peak_depth = 0.0;
  double agg_tuples_in = 0.0;
  double agg_batches_in = 0.0;
  double grid_cache_hits = 0.0;
  double grid_cache_misses = 0.0;
  double target_batch_size = 0.0;  ///< live value after the pass
  // Sampled gauges (traced passes only).
  double buffered_bytes_peak = 0.0;
  std::vector<double> watermark_lag_ms;
};

void ReadFinalMetrics(const std::vector<usp::stream::NodeMetrics>& snapshot,
                      const NodeNames& names, ProgramNumbers* out);

/// Samples MetricsSnapshot() at most every `period_ns` while a traced pass
/// pushes: peak buffered bytes over all nodes, and the aggregate's
/// watermark lag behind the newest pushed event time.
class GaugeSampler {
 public:
  GaugeSampler(bool enabled, const NodeNames& names, int64_t period_ns)
      : enabled_(enabled), names_(names), period_ns_(period_ns) {}

  template <typename Query>
  void Maybe(const Query& q, int64_t newest_ts_us, ProgramNumbers* out) {
    if (!enabled_) return;
    const int64_t now = SteadyNowNs();
    if (now < next_ns_) return;
    next_ns_ = now + period_ns_;
    Record(q.MetricsSnapshot(), newest_ts_us, out);
  }

 private:
  void Record(const std::vector<usp::stream::NodeMetrics>& snapshot,
              int64_t newest_ts_us, ProgramNumbers* out);

  bool enabled_;
  NodeNames names_;
  int64_t period_ns_;
  int64_t next_ns_ = 0;
};

/// PlanSummary decisions for the fingerprint (shards, lanes, batch target,
/// pinning, watermark period, paned vs naive, and where the pushing thread
/// was pinned).
void AddPlanFingerprint(const usp::query::PlanSummary& summary,
                        const std::string& prefix, RunReport* report);

struct PassConfig {
  int index = 0;
  Tracer* tracer = nullptr;  ///< disabled tracer on untraced passes
  /// PlannerOptions::num_shards for this pass (kAutoShards normally; 1 for
  /// the shard-scaling reference passes).
  size_t num_shards = usp::query::PlannerOptions::kAutoShards;
  /// Set up (timed as setup_s), then tear down without pushing anything.
  bool setup_only = false;
};

struct PassResult {
  double setup_s = 0.0;    ///< Compile (+ T-operator construction)
  double compile_s = 0.0;  ///< Compile alone
  double run_s = 0.0;      ///< first push until Finish() returns
  double push_s = 0.0;     ///< time inside PushBatch calls
  double finish_s = 0.0;   ///< time inside Finish()
  uint64_t records = 0;    ///< input records accepted
  /// Latency of each request: one PushBatch (RFID: one reading through
  /// the T operator and its push). Finish() is timed as finish_s.
  std::vector<double> request_ms;
  uint64_t requests = 0;
  uint64_t requests_failed = 0;
  OracleReport oracle;
  ProgramNumbers program;
  usp::query::PlanSummary summary;
};

using PassFn = std::function<PassResult(const PassConfig&)>;

/// The passes, handed back to the workload for its own metrics.
struct ClosedLoopOutcome {
  std::vector<PassResult> untraced;  ///< auto-shard, untraced passes
  std::vector<PassResult> traced;    ///< auto-shard, traced passes
  std::vector<PassResult> one_shard; ///< traced runs only
};

/// Runs passes until `opt.seconds` of timed pushing is spent (at least
/// three of each kind), sampling set-up on its own (setup_only passes) in
/// rounds before the first pass and after every untraced pass,
/// checks each pass's oracle into `report`, and
/// fills the metrics common to the closed-loop workloads:
///   untraced: throughput_rps, setup_s;
///   traced:   ReportStreamLayers, stream.shard_scaling, trace.overhead.
/// Workloads add result_error and the kernel-replay metrics themselves.
ClosedLoopOutcome DriveClosedLoop(const Options& opt, const PassFn& pass,
                                  const char* record_unit, Tracer* tracer,
                                  RunReport* report);

/// One closed-loop pass of a compiled plan over pre-built batches: times
/// Compile (setup), pushes every batch by const reference (the program
/// copies it, as for any caller that keeps its input), times each PushBatch
/// as a request and the final Finish(), samples gauges on traced passes, and
/// reads the final metrics. `check` gets the sink's output for the oracle.
PassResult RunPlanPass(
    const PassConfig& cfg, const usp::query::Query& plan,
    const std::string& source, const std::string& sink,
    const std::vector<usp::stream::TupleBatch>& batches, NodeNames names,
    const std::function<void(const usp::stream::TupleBatch&, PassResult*)>&
        check);

/// Reports the per-layer stream metrics of traced passes (medians over
/// them): query.compile_s, stream.push_s / finish_s / agg.* /
/// target_batch_size / queue_peak_depth / watermark_lag_ms /
/// buffered_bytes_peak, self.stream_s from `tracer`'s spans, and the
/// plan-specific extras (map, dispatch, push block, grid cache).
void ReportStreamLayers(const std::vector<PassResult>& traced, Tracer* tracer,
                        RunReport* report);

/// Reports the median, p95 and the highest percentile up to p99 with at
/// least ten samples beyond it (value, percentile used, sample count) of
/// the latency samples `ms` as extras; fails the run when even the median
/// lacks ten samples beyond it.
void ReportLatencyExtras(const std::vector<double>& ms, RunReport* report);

/// Median over passes of a per-pass value.
double MedianOf(const std::vector<PassResult>& passes,
                const std::function<double(const PassResult&)>& get);

/// Adds a pass's oracle outcome to the report's attempted/failed counts.
void AccountOracle(const OracleReport& oracle, const std::string& label,
                   RunReport* report);

}  // namespace ucbench

#endif  // UCBENCH_CLOSED_LOOP_H_
