// The physical half of the query layer: Planner::Compile turns a validated
// LogicalPlan into the existing physical runtime and makes every physical
// choice the repo's examples used to hand-wire —
//
//   * aggregation path: PanedGroupByAggregateOperator (pane-incremental)
//     for every window. Overlapping windows pay each tuple once per pane;
//     a tumbling window is one pane of per-group partials, so no tuple is
//     copied into a window buffer, and its results are bitwise-identical
//     to the exact per-window GroupByAggregateOperator (kept as the
//     reference path behind AggregatePath::kForceNaive);
//   * SUM/AVG strategies: one SumStrategy instance per shard (aggregate
//     state never crosses threads), with CF-inversion strategies wired to
//     the shard's CfInversionWorkspace (ShardContext::cf_workspace) so the
//     per-window FFT hot loop is allocation-free;
//   * execution backend: a single-threaded DagExecutor at num_shards == 1,
//     a ShardedExecutor otherwise;
//   * ingest partition key (sharded only): the caller's PartitionBy()
//     override if present, else derived from the group-by key — hashed
//     directly when only filters and maps whose preserved prefix covers
//     the key attribute sit between the source and the group-by, or by
//     replaying on the ingest thread the (pure) map functions up to the
//     last one that may rewrite the key. Underivable cases (joins with no
//     override, ungrouped aggregates, multiple group-bys) fail Compile()
//     with an actionable Status instead of silently mis-partitioning —
//     unless the shard count itself was auto, in which case the planner
//     falls back to one shard and says why in the summary;
//   * physical auto-tuning (each overridable in PlannerOptions): shard
//     count from std::thread::hardware_concurrency(), one ingest lane per
//     source on sharded plans so multi-sensor feeds push from their own
//     threads, the ingest re-batching target from observed per-tuple
//     operator cost (the executor's feedback tuner);
//   * filter pushdown (always on): filters move below maps whenever the
//     filter's declared read set lies inside the map's preserved prefix.
//
// The result is a CompiledQuery: one ingest/finish/result facade over both
// backends, plus a PlanSummary describing the decisions for logs, tests,
// and examples.

#ifndef USP_QUERY_PLANNER_H_
#define USP_QUERY_PLANNER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/logical_plan.h"
#include "query/subscription.h"
#include "stats/characteristic_function.h"
#include "stream/exec_graph.h"
#include "stream/sharded_executor.h"
#include "stream/watermark.h"
#include "uncertain/sum_strategies.h"

namespace usp {
namespace query {

struct PlannerOptions {
  /// Auto markers: the planner picks the value from the machine and the
  /// plan, reports it in PlanSummary, and any explicit value still wins.
  static constexpr size_t kAutoShards = 0;
  static constexpr size_t kAutoLanes = 0;
  static constexpr size_t kAutoBatchSize = static_cast<size_t>(-1);

  /// Worker shards. kAutoShards (the default) derives the count from
  /// std::thread::hardware_concurrency() (capped at kMaxAutoShards) when
  /// the plan's partition key is derivable, falling back to 1 — with the
  /// reason recorded in PlanSummary — when it is not (joins, ungrouped
  /// aggregates). An explicit 1 compiles to a single-threaded
  /// DagExecutor; an explicit N > 1 fails Compile() if no key can be
  /// derived or supplied.
  size_t num_shards = kAutoShards;
  /// Parallel ingest lanes (single producer thread each). kAutoLanes
  /// gives every source its own lane when the plan is sharded — radar A,
  /// radar B, and the RFID feed each push from their own thread — and 1
  /// lane otherwise. Sources are assigned round-robin in declaration
  /// order when there are fewer lanes than sources.
  size_t num_ingest_lanes = kAutoLanes;
  /// Sharded ingest merges undersized and splits oversized caller batches
  /// toward this many tuples; 0 forwards caller-sized batches unchanged.
  /// kAutoBatchSize (the default) turns on the executor's feedback tuner:
  /// the target is re-derived from observed per-tuple operator cost so
  /// one batch carries roughly a fixed cost budget of downstream work.
  size_t target_batch_size = kAutoBatchSize;

  /// Physical aggregation path selection. kAuto implements the planner
  /// rule (pane-incremental for every window); kForceNaive selects the
  /// exact per-window reference operator for benchmarks and equivalence
  /// tests, not applications.
  enum class AggregatePath { kAuto, kForceNaive };
  AggregatePath aggregate_path = AggregatePath::kAuto;

  /// Grid resolution for CF-inversion SUM/AVG (FFT points / output bins).
  size_t cf_grid_points = 1024;

  /// Share evaluated CF grids across a window's groups: the per-shard
  /// workspace keys CfGrid evaluations by distribution-parameter signature
  /// (stats::CfGridCache), so G groups over identically-parameterised
  /// sensor models pay for each grid once. Enabled (when true) only on
  /// plans with a CF-inversion SUM/AVG; bitwise-neutral — a cache hit
  /// returns the exact grid a miss would have computed.
  bool share_cf_grids = true;

  /// Pin shard workers and ingest lanes to distinct cores
  /// (ShardedExecutor::Options::pin_threads). kAuto pins when the machine
  /// reports >= 4 hardware threads and the plan is sharded; kOff/kOn
  /// force. Pinning also makes the deferred ring allocation first-touch
  /// core-local (each shard's rings are faulted in by its pinned worker).
  enum class PinThreads { kAuto, kOn, kOff };
  PinThreads pin_threads = PinThreads::kAuto;

  /// Event-time watermark generation period, in event-time microseconds.
  /// Watermarks are the runtime's progress signal: each source
  /// periodically announces "no future tuple below T" (T = its max
  /// ingested timestamp, exact under per-source order), executors forward
  /// the signal along graph edges (fan-in nodes take the min of their
  /// inputs), windowed operators close windows by it, and join buffers
  /// expire by it — which is what keeps a join bounded when one input
  /// goes silent (CompiledQuery::PushWatermark covers the fully idle
  /// case). kAutoWatermarkPeriod (default) derives the period from the
  /// plan — a quarter of the smallest window slide / join range — when
  /// the plan has event-time state, and disables generation otherwise.
  /// 0 disables generation explicitly (pre-watermark behaviour:
  /// arrival-driven closure only). Watermark closure fires exactly where
  /// arrival-driven closure already fired, so result sets are unchanged.
  static constexpr int64_t kAutoWatermarkPeriod = -1;
  int64_t watermark_period_us = kAutoWatermarkPeriod;

  /// Auto shard counts are capped here: past ~8 shards ingest
  /// partitioning saturates before the workers do.
  static constexpr size_t kMaxAutoShards = 8;
  /// Test hook: pretend the machine has this many cores (0 = ask the OS).
  size_t hardware_concurrency_override = 0;
};

/// What the planner decided, for inspection. Every auto-tuned value is
/// reported here alongside whether it was chosen or explicitly supplied.
struct PlanSummary {
  size_t num_shards = 1;
  bool auto_num_shards = false;
  bool sharded = false;
  /// Why an auto shard choice fell back to 1 (e.g. underivable key);
  /// empty when it did not.
  std::string auto_shard_note;

  size_t num_ingest_lanes = 1;
  bool auto_num_ingest_lanes = false;
  /// Why an auto lane choice was reduced (e.g. a windowed aggregate
  /// downstream of a join needs cross-source order); empty otherwise.
  std::string auto_lane_note;

  /// Resolved ingest re-batching target (0 = pass-through / single DAG).
  size_t target_batch_size = 0;
  /// True when the executor's feedback tuner owns the target; the
  /// reported value is then the initial seed, see
  /// CompiledQuery::current_target_batch_size() for the live value.
  bool auto_target_batch_size = false;

  enum class ShardKeySource {
    kNone,              ///< single shard, no partitioning
    kExplicit,          ///< caller's PartitionBy() override
    kGroupKey,          ///< hash of the group key read off the raw tuple
                        ///< (upstream maps, if any, all preserve it)
    kReplayedGroupKey,  ///< group key after replaying the upstream maps
                        ///< up to the last one that may rewrite it
  };
  ShardKeySource shard_key_source = ShardKeySource::kNone;

  /// Resolved watermark generation period (0 = off) and whether the
  /// planner derived it from the plan's window/join spans.
  int64_t watermark_period_us = 0;
  bool auto_watermark_period = false;
  /// Windowed aggregates switched to watermark-only closure: they consume
  /// join output under multi-lane ingest, where emission order regresses
  /// in timestamp under cross-source skew but never below the join's
  /// propagated watermark — so the watermark, not data arrival, closes
  /// their windows. This is what lifts the old multi-lane refusal for
  /// join-consuming windowed plans.
  std::vector<std::string> watermark_driven;

  struct AggregateChoice {
    std::string node_name;
    bool paned = false;  ///< pane-incremental vs. exact per-window
  };
  std::vector<AggregateChoice> aggregates;

  /// Cross-group CF grid sharing is live (PlannerOptions::share_cf_grids
  /// on a plan with a CF-inversion SUM/AVG). Hit/miss counts surface in
  /// the aggregate node's OperatorMetrics.
  bool cf_grid_sharing = false;

  /// Shard workers / ingest lanes are pinned to cores, and whether that
  /// was the auto rule (>= 4 hardware threads) or an explicit override.
  bool pin_threads = false;
  bool auto_pin_threads = false;

  /// Filters the planner pushed below maps: (filter_name, map_name).
  std::vector<std::pair<std::string, std::string>> pushed_filters;

  /// Standing-query multiplexing (Planner::CompileMultiplexed): how many
  /// subscriptions the shared plan served at compile time, and the
  /// state-sharing decision for the aggregate stage — m output columns
  /// backed by s distinct accumulator slots (pane path; s < m when e.g.
  /// SUM and AVG of one attribute share a partial). Zeros on ordinary
  /// Compile() plans.
  bool multiplexed = false;
  size_t subscriptions_at_compile = 0;
  size_t multiplex_agg_columns = 0;
  size_t multiplex_partial_slots = 0;

  std::string ToString() const;
};

/// \brief A compiled, runnable physical plan.
///
/// Push batches at sources (ids via source()), call Finish() exactly once
/// after the last push, then read per-sink results. The facade hides
/// whether a DagExecutor or a ShardedExecutor runs underneath; the only
/// observable difference is the documented sharded-merge ordering (result
/// sets are shard-count-independent, equal-timestamp tie order is not).
class CompiledQuery {
 public:
  virtual ~CompiledQuery() = default;

  /// Source/sink handle by the name declared in the logical plan;
  /// kInvalidNode if absent.
  stream::ExecGraph::NodeId source(const std::string& name) const;
  stream::ExecGraph::NodeId sink(const std::string& name) const;

  /// Ingest lane a source is routed through. Pushes for sources on
  /// DIFFERENT lanes may run concurrently from different threads (the
  /// multi-producer contract); pushes for one source — or two sources
  /// sharing a lane — must be externally serialised. Single-DAG plans
  /// report lane 0 for every source and are single-threaded throughout.
  size_t ingest_lane(stream::ExecGraph::NodeId source) const;

  common::Status Push(stream::ExecGraph::NodeId source, stream::Tuple tuple);
  common::Status PushBatch(stream::ExecGraph::NodeId source,
                           const stream::TupleBatch& batch);
  common::Status PushBatch(stream::ExecGraph::NodeId source,
                           stream::TupleBatch&& batch);
  /// Event-time progress for an IDLE source: promises every future tuple
  /// pushed at `source` has timestamp >= watermark, letting windows close
  /// and the peer side of a join expire while this feed is silent (a
  /// sensor outage stops data, not time). Live sources need no explicit
  /// calls — the compiled plan generates watermarks periodically from
  /// ingested timestamps (see PlannerOptions::watermark_period_us). Same
  /// threading contract as PushBatch for the same source; monotonic per
  /// source (regressions are ignored).
  common::Status PushWatermark(stream::ExecGraph::NodeId source,
                               int64_t watermark);

  /// Live ingest re-batching target (moves under the feedback tuner when
  /// PlannerOptions::kAutoBatchSize is in effect; 0 on single-DAG plans).
  size_t current_target_batch_size() const;

  /// End-of-stream: flush windows/joins (and join + drain the shard
  /// workers when sharded). Idempotent; returns the first error any part
  /// of the plan hit.
  common::Status Finish();

  /// Accumulated output of a sink, by id or by name. Complete only after
  /// Finish().
  const stream::TupleBatch& Result(stream::ExecGraph::NodeId sink) const;
  const stream::TupleBatch& Result(const std::string& name) const;
  stream::TupleBatch TakeResult(stream::ExecGraph::NodeId sink);

  /// Per-node metrics (merged across shards when sharded).
  std::vector<stream::NodeMetrics> MetricsSnapshot() const;

  const PlanSummary& summary() const { return summary_; }
  size_t num_shards() const { return summary_.num_shards; }

 protected:
  CompiledQuery() = default;

 private:
  friend class Planner;

  /// Creates (and owns) one SumStrategy instance for one shard's operator,
  /// wiring CF-inversion strategies to the shard's workspace.
  uncertain::SumStrategy* NewStrategy(uncertain::SumStrategyKind kind,
                                      size_t cf_grid_points,
                                      stats::CfInversionWorkspace* workspace);

  PlanSummary summary_;
  std::unordered_map<std::string, stream::ExecGraph::NodeId> sources_;
  std::unordered_map<std::string, stream::ExecGraph::NodeId> sinks_;
  /// Ingest lane per source node id (sharded backend only).
  std::unordered_map<stream::ExecGraph::NodeId, size_t> lane_of_source_;
  /// All shards' strategy instances (stable addresses; operators hold raw
  /// pointers into these).
  std::vector<std::unique_ptr<uncertain::SumStrategy>> strategies_;
  /// CF scratch for the single-shard DagExecutor backend (the sharded
  /// backend uses the per-shard workspace owned by ShardedExecutor).
  stats::CfInversionWorkspace local_workspace_;
  /// Single-DAG watermark generation state (the sharded backend generates
  /// lane-locally inside ShardedExecutor; same shared clock type).
  std::unordered_map<stream::ExecGraph::NodeId, stream::SourceWatermarkClock>
      source_clocks_;
  int64_t watermark_period_us_ = 0;
  /// Exactly one of these backs the query.
  std::unique_ptr<stream::DagExecutor> dag_;
  std::unique_ptr<stream::ShardedExecutor> sharded_;
  bool finished_ = false;
  common::Status finish_status_;
};

/// \brief Many standing queries compiled onto ONE physical plan.
///
/// Produced by Planner::CompileMultiplexed from a template LogicalPlan
/// (source → [filters/maps] → window/group-by/aggregate → sink) and a
/// SubscriptionSet whose entries differ only in group-key scope and
/// HAVING threshold. It is a CompiledQuery — same ingest/finish/result API
/// — with exactly one source scan, one pane/window buffer, and one CF grid
/// per aggregate signature regardless of the subscription count. Each result
/// row the shared aggregate emits is routed by the predicate-index
/// dispatch operator: the sink accumulates tagged rows
/// [group_key, agg_1..agg_m, subscription_id] (ascending id per source
/// row), and per-subscription OnMatch callbacks fire as windows close.
/// Subscribe/Unsubscribe through subscriptions() stays legal while
/// streaming.
class MultiplexedQuery : public CompiledQuery {
 public:
  /// The live registry this plan serves; mid-stream Subscribe/Unsubscribe
  /// take effect on the next window the dispatch routes.
  SubscriptionSet& subscriptions() { return *subscriptions_; }
  const std::shared_ptr<SubscriptionSet>& subscription_set() const {
    return subscriptions_;
  }

 private:
  friend class Planner;
  MultiplexedQuery() = default;

  std::shared_ptr<SubscriptionSet> subscriptions_;
};

class Planner {
 public:
  /// Validates `plan` and compiles it. The plan is copied where needed
  /// (closures are shared); it does not need to outlive the result.
  static common::Result<std::unique_ptr<CompiledQuery>> Compile(
      const LogicalPlan& plan, const PlannerOptions& options = {});

  /// Compiles `templ` once and binds `subscriptions` to it (the set must
  /// be fresh — one set per call). The template must be the multiplexable
  /// shape: exactly one source, one grouped windowed aggregate, one sink,
  /// no joins, and no explicit PartitionBy (the planner owns placement so
  /// the subscription table partitions exactly like the data). All
  /// physical planning (sharding, lanes, watermarks, pane vs. naive) is
  /// inherited from Compile; the per-shard dispatch operator is spliced
  /// between the aggregate and the sink.
  static common::Result<std::unique_ptr<MultiplexedQuery>> CompileMultiplexed(
      const LogicalPlan& templ, std::shared_ptr<SubscriptionSet> subscriptions,
      const PlannerOptions& options = {});

 private:
  /// Shared body of Compile and CompileMultiplexed: fills `compiled`.
  /// A non-null `subscriptions` splices its dispatch operator after the
  /// aggregate on every shard.
  static common::Status CompileInto(const LogicalPlan& plan,
                                    const PlannerOptions& options,
                                    SubscriptionSet* subscriptions,
                                    CompiledQuery* compiled);
};

}  // namespace query
}  // namespace usp

#endif  // USP_QUERY_PLANNER_H_
