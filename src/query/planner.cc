#include "query/planner.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "query/query.h"
#include "stream/group_by.h"
#include "stream/pane_window.h"
#include "stream/subscription_index.h"
#include "uncertain/aggregates.h"
#include "uncertain/pane_aggregates.h"
#include "uncertain/selection.h"

namespace usp {
namespace query {

namespace {

using stream::ExecGraph;
using stream::ShardContext;
using stream::ShardedExecutor;
using stream::ShardedSubscriptionTable;
using stream::Tuple;
using stream::TupleBatch;
using stream::Value;

using stream::CanonicalKeyString;

stream::GroupByAggregateOperator::KeyFn OperatorKeyFn(
    const LogicalPlan::Node& node) {
  if (node.group_key_fn) return node.group_key_fn;
  if (node.group_key_attr.has_value()) {
    const size_t attr = *node.group_key_attr;
    return [attr](const Tuple& t) { return CanonicalKeyString(t.value(attr)); };
  }
  // Ungrouped aggregate: the whole window is one group.
  return [](const Tuple&) { return std::string("all"); };
}

struct ShardKeyDecision {
  ShardedExecutor::KeyFn fn;
  PlanSummary::ShardKeySource source = PlanSummary::ShardKeySource::kNone;
};

/// Physical partition key for sharded execution. The caller's override
/// wins; otherwise the key is derived from the (single) group-by so that
/// one group's tuples always land on one shard: hash the group key
/// directly when only filters and key-preserving maps precede the
/// group-by, or replay the (pure) upstream map functions at ingest up to
/// the last map that may rewrite the key.
common::Result<ShardKeyDecision> DeriveShardKey(const LogicalPlan& plan) {
  if (plan.partition_key()) {
    ShardKeyDecision d;
    d.fn = plan.partition_key();
    d.source = PlanSummary::ShardKeySource::kExplicit;
    return d;
  }
  size_t num_sources = 0;
  bool has_join = false;
  std::vector<LogicalPlan::NodeId> agg_nodes;
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    switch (plan.kind(id)) {
      case LogicalPlan::NodeKind::kSource:
        ++num_sources;
        break;
      case LogicalPlan::NodeKind::kJoin:
        has_join = true;
        break;
      case LogicalPlan::NodeKind::kAggregate:
        agg_nodes.push_back(id);
        break;
      default:
        break;
    }
  }
  if (has_join) {
    return common::Status::InvalidArgument(
        "cannot derive a shard key for a plan with join nodes: "
        "probabilistic matches have no exact key to co-partition both "
        "inputs on — supply PartitionBy() (asserting matching pairs "
        "co-locate) or compile with num_shards = 1");
  }
  if (agg_nodes.empty()) {
    return common::Status::InvalidArgument(
        "no group-by to derive a shard key from; stateless plans need an "
        "explicit PartitionBy() or num_shards = 1");
  }
  if (agg_nodes.size() > 1) {
    return common::Status::InvalidArgument(
        "plan has " + std::to_string(agg_nodes.size()) +
        " aggregate stages with possibly different keys; supply "
        "PartitionBy() or num_shards = 1 (cross-shard exchange is a "
        "ROADMAP item)");
  }
  if (num_sources > 1) {
    return common::Status::InvalidArgument(
        "plan has multiple sources with different tuple layouts; the "
        "derived group key cannot be applied to all of them — supply "
        "PartitionBy() or num_shards = 1");
  }
  const LogicalPlan::Node& agg = plan.node(agg_nodes[0]);
  std::function<std::string(const Tuple&)> logical_key;
  if (agg.group_key_attr.has_value()) {
    const size_t attr = *agg.group_key_attr;
    logical_key = [attr](const Tuple& t) {
      return CanonicalKeyString(t.value(attr));
    };
  } else if (agg.group_key_fn) {
    logical_key = agg.group_key_fn;
  } else {
    return common::Status::InvalidArgument(
        "ungrouped (global) aggregate cannot be hash-sharded: every tuple "
        "belongs to one group, so use num_shards = 1");
  }
  // Walk the path group-by input -> source, collecting the maps the key
  // needs replayed. Maps between the group-by and the last map that may
  // rewrite the key attribute declare (preserved_prefix) that they pass
  // it through unchanged, so they are skipped — the same declaration
  // filter pushdown trusts. Every map upstream of a key-rewriting map is
  // kept: it may append an attribute the rewriting map reads.
  std::vector<stream::MapOperator::MapFn> maps;
  LogicalPlan::NodeId cur = agg.inputs[0];
  while (plan.kind(cur) != LogicalPlan::NodeKind::kSource) {
    const LogicalPlan::Node& n = plan.node(cur);
    if (n.kind == LogicalPlan::NodeKind::kMap) {
      const bool keeps_key = maps.empty() && agg.group_key_attr.has_value() &&
                             *agg.group_key_attr < n.map_preserved_prefix;
      if (!keeps_key) maps.push_back(n.map);
    } else if (n.kind != LogicalPlan::NodeKind::kFilter) {
      return common::Status::InvalidArgument(
          "cannot derive a shard key through '" + n.name +
          "'; supply PartitionBy() or num_shards = 1");
    }
    cur = n.inputs[0];
  }
  std::reverse(maps.begin(), maps.end());
  ShardKeyDecision d;
  if (maps.empty()) {
    d.fn = [logical_key](const Tuple& t) {
      return static_cast<uint64_t>(std::hash<std::string>{}(logical_key(t)));
    };
    d.source = PlanSummary::ShardKeySource::kGroupKey;
  } else {
    // Maps must be pure (same contract as the operator path); a map that
    // drops the tuple (NotFound) pins it to shard 0 — it will be dropped
    // again by the in-graph map, so the placement is irrelevant.
    d.fn = [maps, logical_key](const Tuple& t) {
      Tuple cur_tuple = t;
      for (const auto& m : maps) {
        auto r = m(cur_tuple);
        if (!r.ok()) return static_cast<uint64_t>(0);
        cur_tuple = r.MoveValueUnsafe();
      }
      return static_cast<uint64_t>(
          std::hash<std::string>{}(logical_key(cur_tuple)));
    };
    d.source = PlanSummary::ShardKeySource::kReplayedGroupKey;
  }
  return d;
}

/// Materialises one shard's ExecGraph from the logical plan. `record` is
/// true exactly once (shard 0 / the single DAG) so the name maps and the
/// summary are filled without duplicates. A non-null `dispatch_table`
/// (a multiplexed plan's bound subscription table) splices the
/// predicate-index dispatch operator after the aggregate.
common::Status BuildGraph(const LogicalPlan& plan,
                          const PlannerOptions& options,
                          const ShardContext& ctx, bool record,
                          ExecGraph* graph, PlanSummary* summary,
                          std::unordered_map<std::string, ExecGraph::NodeId>*
                              sources,
                          std::unordered_map<std::string, ExecGraph::NodeId>*
                              sinks,
                          std::function<uncertain::SumStrategy*(
                              uncertain::SumStrategyKind)> new_strategy,
                          const std::vector<char>& watermark_only_aggs,
                          const std::shared_ptr<ShardedSubscriptionTable>&
                              dispatch_table) {
  std::vector<ExecGraph::NodeId> phys(plan.num_nodes(),
                                      ExecGraph::kInvalidNode);
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    const LogicalPlan::Node& n = plan.node(id);
    switch (n.kind) {
      case LogicalPlan::NodeKind::kSource:
        phys[id] = graph->AddSource(n.name);
        if (record) (*sources)[n.name] = phys[id];
        break;
      case LogicalPlan::NodeKind::kFilter:
        phys[id] = graph->AddOperator(
            phys[n.inputs[0]],
            std::make_unique<stream::FilterOperator>(n.name, n.filter));
        break;
      case LogicalPlan::NodeKind::kMap:
        phys[id] = graph->AddOperator(
            phys[n.inputs[0]],
            std::make_unique<stream::MapOperator>(n.name, n.map));
        break;
      case LogicalPlan::NodeKind::kAggregate: {
        // Pane-incremental aggregation for every window: overlapping
        // windows accumulate each tuple once per pane instead of once per
        // window, and a tumbling window is one pane of per-group partials,
        // so no tuple is copied into a window buffer. Single-pane windows
        // finalize through the exact per-window kernels, so tumbling
        // results are bitwise-identical to the naive operator, which
        // kForceNaive keeps as the reference path.
        const bool paned = options.aggregate_path !=
                           PlannerOptions::AggregatePath::kForceNaive;
        const bool watermark_only =
            id < watermark_only_aggs.size() && watermark_only_aggs[id];
        // Cross-group CF grid sharing: when this aggregate runs CF
        // inversion, turn on the shard workspace's grid cache so G groups
        // over identically-parameterised models evaluate each CfGrid once
        // (bitwise-neutral — a hit returns exactly what the miss would
        // compute), and install a probe so the operator's metrics report
        // the hit rate.
        bool share_grids = false;
        if (options.share_cf_grids && ctx.cf_workspace != nullptr) {
          for (const AggregateDecl& a : n.aggregates) {
            if ((a.kind == AggregateKind::kSum ||
                 a.kind == AggregateKind::kAvg) &&
                a.strategy == uncertain::SumStrategyKind::kCfInversion) {
              share_grids = true;
              break;
            }
          }
        }
        stats::CfGridCache* cache = nullptr;
        if (share_grids) {
          cache = &ctx.cf_workspace->grid_cache;
          cache->enabled = true;
        }
        auto key_fn = OperatorKeyFn(n);
        std::unique_ptr<stream::Operator> op;
        // Accumulator footprint for the summary: output columns vs.
        // distinct partial slots (pane path shares slots across columns
        // with equal partial signatures, e.g. SUM + AVG of one attribute).
        size_t partial_slots = n.aggregates.size();
        if (paned) {
          uncertain::PaneAggregateOptions popts;
          popts.grid_points = options.cf_grid_points;
          popts.workspace = ctx.cf_workspace;
          std::vector<stream::PaneAggregateSpec> specs;
          specs.reserve(n.aggregates.size());
          for (const AggregateDecl& a : n.aggregates) {
            switch (a.kind) {
              case AggregateKind::kSum:
                specs.push_back(uncertain::MakePaneSumAggregate(
                    a.output_name, a.attr_index, a.strategy, popts));
                break;
              case AggregateKind::kAvg:
                specs.push_back(uncertain::MakePaneAvgAggregate(
                    a.output_name, a.attr_index, a.strategy, popts));
                break;
              case AggregateKind::kMax:
                specs.push_back(uncertain::MakePaneMaxAggregate(
                    a.output_name, a.attr_index, a.bins, popts));
                break;
              case AggregateKind::kMin:
                specs.push_back(uncertain::MakePaneMinAggregate(
                    a.output_name, a.attr_index, a.bins, popts));
                break;
              case AggregateKind::kCount:
                specs.push_back(
                    uncertain::MakePaneCountAggregate(a.output_name));
                break;
            }
          }
          partial_slots = stream::CountDistinctPartialSlots(specs);
          auto paned_op =
              std::make_unique<stream::PanedGroupByAggregateOperator>(
                  n.name, *n.window, std::move(key_fn), std::move(specs),
                  n.having);
          if (watermark_only) paned_op->set_watermark_only_closure(true);
          if (cache != nullptr) {
            paned_op->set_grid_cache_probe([cache] {
              return std::make_pair(cache->hits, cache->misses);
            });
          }
          op = std::move(paned_op);
        } else {
          std::vector<stream::AggregateSpec> specs;
          specs.reserve(n.aggregates.size());
          for (const AggregateDecl& a : n.aggregates) {
            switch (a.kind) {
              case AggregateKind::kSum:
                specs.push_back(uncertain::MakeSumAggregate(
                    a.output_name, a.attr_index, new_strategy(a.strategy)));
                break;
              case AggregateKind::kAvg:
                specs.push_back(uncertain::MakeAvgAggregate(
                    a.output_name, a.attr_index, new_strategy(a.strategy)));
                break;
              case AggregateKind::kMax:
                specs.push_back(uncertain::MakeMaxAggregate(
                    a.output_name, a.attr_index, a.bins));
                break;
              case AggregateKind::kMin:
                specs.push_back(uncertain::MakeMinAggregate(
                    a.output_name, a.attr_index, a.bins));
                break;
              case AggregateKind::kCount:
                specs.push_back(
                    uncertain::MakeCountAggregate(a.output_name));
                break;
            }
          }
          auto naive_op = std::make_unique<stream::GroupByAggregateOperator>(
              n.name, *n.window, std::move(key_fn), std::move(specs),
              n.having);
          if (watermark_only) naive_op->set_watermark_only_closure(true);
          if (cache != nullptr) {
            naive_op->set_grid_cache_probe([cache] {
              return std::make_pair(cache->hits, cache->misses);
            });
          }
          op = std::move(naive_op);
        }
        phys[id] = graph->AddOperator(phys[n.inputs[0]], std::move(op));
        if (dispatch_table != nullptr) {
          // Multiplexed plan: splice the predicate-index dispatch between
          // the shared aggregate and whatever consumes it, so every
          // result row is routed to its subscribers before the sink.
          phys[id] = graph->AddOperator(
              phys[id], std::make_unique<stream::SubscriptionDispatchOperator>(
                            n.name + "_dispatch", dispatch_table,
                            ctx.shard_index,
                            uncertain::MakeSubscriptionProbFn()));
        }
        if (record) {
          summary->aggregates.push_back({n.name, paned});
          if (share_grids) summary->cf_grid_sharing = true;
          if (watermark_only) summary->watermark_driven.push_back(n.name);
          if (dispatch_table != nullptr) {
            summary->multiplex_agg_columns = n.aggregates.size();
            summary->multiplex_partial_slots = partial_slots;
          }
        }
        break;
      }
      case LogicalPlan::NodeKind::kJoin:
        phys[id] = graph->AddJoin(
            phys[n.inputs[0]], phys[n.inputs[1]],
            std::make_unique<stream::SlidingWindowJoin>(
                n.name, n.join_range_us, n.join_match));
        break;
      case LogicalPlan::NodeKind::kSink:
        phys[id] = graph->AddSink(phys[n.inputs[0]], n.name);
        if (record) (*sinks)[n.name] = phys[id];
        break;
    }
  }
  return common::Status::OK();
}

const TupleBatch& EmptyBatch() {
  static const TupleBatch* empty = new TupleBatch();
  return *empty;
}

}  // namespace

std::string PlanSummary::ToString() const {
  std::ostringstream out;
  out << num_shards << " shard" << (num_shards == 1 ? "" : "s")
      << (auto_num_shards ? " [auto]" : "") << " ("
      << (sharded ? "sharded executor" : "single-threaded DAG executor")
      << ")";
  if (!auto_shard_note.empty()) {
    out << " — " << auto_shard_note;
  }
  if (sharded) {
    out << ", " << num_ingest_lanes << " ingest lane"
        << (num_ingest_lanes == 1 ? "" : "s")
        << (auto_num_ingest_lanes ? " [auto]" : "");
    if (!auto_lane_note.empty()) {
      out << " (" << auto_lane_note << ")";
    }
    out << ", target batch ";
    if (auto_target_batch_size) {
      out << "auto (initial " << target_batch_size << ")";
    } else if (target_batch_size == 0) {
      out << "pass-through";
    } else {
      out << target_batch_size;
    }
  }
  if (watermark_period_us > 0) {
    out << ", watermarks every " << watermark_period_us << " us"
        << (auto_watermark_period ? " [auto]" : "");
  } else {
    out << ", watermarks off" << (auto_watermark_period ? " [auto]" : "");
  }
  for (const std::string& name : watermark_driven) {
    out << "; aggregate '" << name << "': watermark-only window closure";
  }
  switch (shard_key_source) {
    case ShardKeySource::kNone:
      break;
    case ShardKeySource::kExplicit:
      out << ", partition key: caller override";
      break;
    case ShardKeySource::kGroupKey:
      out << ", partition key: hashed group key";
      break;
    case ShardKeySource::kReplayedGroupKey:
      out << ", partition key: group key via replayed maps";
      break;
  }
  for (const AggregateChoice& a : aggregates) {
    out << "; aggregate '" << a.node_name << "': "
        << (a.paned ? "pane-incremental" : "exact per-window");
  }
  if (cf_grid_sharing) out << "; cross-group CF grid sharing";
  if (sharded) {
    out << "; thread pinning " << (pin_threads ? "on" : "off")
        << (auto_pin_threads ? " [auto]" : "");
  }
  for (const auto& [filter_name, map_name] : pushed_filters) {
    out << "; filter '" << filter_name << "' pushed below map '" << map_name
        << "'";
  }
  if (multiplexed) {
    out << "; multiplexed: " << subscriptions_at_compile
        << " subscription(s) on one shared plan, " << multiplex_agg_columns
        << " aggregate column(s) in " << multiplex_partial_slots
        << " partial slot(s), predicate-index dispatch";
  }
  return out.str();
}

uncertain::SumStrategy* CompiledQuery::NewStrategy(
    uncertain::SumStrategyKind kind, size_t cf_grid_points,
    stats::CfInversionWorkspace* workspace) {
  std::unique_ptr<uncertain::SumStrategy> strategy;
  if (kind == uncertain::SumStrategyKind::kCfInversion) {
    auto cf = std::make_unique<uncertain::CfInversionSum>(cf_grid_points);
    cf->set_workspace(workspace);
    strategy = std::move(cf);
  } else {
    strategy = uncertain::MakeSumStrategy(kind);
  }
  strategies_.push_back(std::move(strategy));
  return strategies_.back().get();
}

stream::ExecGraph::NodeId CompiledQuery::source(
    const std::string& name) const {
  const auto it = sources_.find(name);
  return it == sources_.end() ? ExecGraph::kInvalidNode : it->second;
}

stream::ExecGraph::NodeId CompiledQuery::sink(const std::string& name) const {
  const auto it = sinks_.find(name);
  return it == sinks_.end() ? ExecGraph::kInvalidNode : it->second;
}

common::Status CompiledQuery::Push(stream::ExecGraph::NodeId source,
                                   stream::Tuple tuple) {
  TupleBatch batch;
  batch.Append(std::move(tuple));
  return PushBatch(source, std::move(batch));
}

common::Status CompiledQuery::PushBatch(stream::ExecGraph::NodeId source,
                                        const stream::TupleBatch& batch) {
  TupleBatch copy = batch;
  return PushBatch(source, std::move(copy));
}

size_t CompiledQuery::ingest_lane(stream::ExecGraph::NodeId source) const {
  const auto it = lane_of_source_.find(source);
  return it == lane_of_source_.end() ? 0 : it->second;
}

size_t CompiledQuery::current_target_batch_size() const {
  return sharded_ ? sharded_->current_target_batch_size() : 0;
}

common::Status CompiledQuery::PushBatch(stream::ExecGraph::NodeId source,
                                        stream::TupleBatch&& batch) {
  if (source == ExecGraph::kInvalidNode) {
    return common::Status::InvalidArgument("unknown source node");
  }
  if (finished_) {
    return common::Status::FailedPrecondition("query already finished");
  }
  if (dag_) {
    // The O(batch) timestamp scan exists only for watermark generation.
    const int64_t batch_max_ts =
        watermark_period_us_ > 0 ? batch.MaxTimestamp() : INT64_MIN;
    USP_RETURN_NOT_OK(dag_->PushBatch(source, batch));
    // Periodic watermark generation for the single-DAG backend (the
    // sharded backend generates lane-locally; same shared clock);
    // emitted after the data it covers, mirroring the executor-side
    // ordering rule.
    stream::SourceWatermarkClock& clock = source_clocks_[source];
    if (const auto wm = clock.Advance(batch_max_ts, watermark_period_us_)) {
      if (clock.TryCommit(*wm)) {
        USP_RETURN_NOT_OK(dag_->PushWatermark(source, *wm));
      }
    }
    return common::Status::OK();
  }
  return sharded_->PushBatch(ingest_lane(source), source, std::move(batch));
}

common::Status CompiledQuery::PushWatermark(stream::ExecGraph::NodeId source,
                                            int64_t watermark) {
  if (source == ExecGraph::kInvalidNode) {
    return common::Status::InvalidArgument("unknown source node");
  }
  if (finished_) {
    return common::Status::FailedPrecondition("query already finished");
  }
  if (dag_) {
    if (!source_clocks_[source].TryCommit(watermark)) {
      return common::Status::OK();  // regression/re-send: no-op
    }
    return dag_->PushWatermark(source, watermark);
  }
  return sharded_->PushWatermark(ingest_lane(source), source, watermark);
}

common::Status CompiledQuery::Finish() {
  if (finished_) return finish_status_;
  finish_status_ = dag_ ? dag_->Close() : sharded_->Finish();
  finished_ = true;
  return finish_status_;
}

const stream::TupleBatch& CompiledQuery::Result(
    stream::ExecGraph::NodeId sink) const {
  if (sink == ExecGraph::kInvalidNode) return EmptyBatch();
  if (dag_) return dag_->sink_output(sink);
  // The sharded merge only exists after Finish().
  if (!finished_) return EmptyBatch();
  return sharded_->sink_output(sink);
}

const stream::TupleBatch& CompiledQuery::Result(
    const std::string& name) const {
  return Result(sink(name));
}

stream::TupleBatch CompiledQuery::TakeResult(stream::ExecGraph::NodeId sink) {
  if (sink == ExecGraph::kInvalidNode) return TupleBatch();
  if (dag_) return dag_->TakeSinkOutput(sink);
  if (!finished_) return TupleBatch();
  return sharded_->TakeSinkOutput(sink);
}

std::vector<stream::NodeMetrics> CompiledQuery::MetricsSnapshot() const {
  return dag_ ? dag_->MetricsSnapshot() : sharded_->MetricsSnapshot();
}

common::Result<std::unique_ptr<CompiledQuery>> Planner::Compile(
    const LogicalPlan& logical, const PlannerOptions& options) {
  std::unique_ptr<CompiledQuery> compiled(new CompiledQuery());
  USP_RETURN_NOT_OK(
      CompileInto(logical, options, /*subscriptions=*/nullptr, compiled.get()));
  return compiled;
}

common::Status Planner::CompileInto(const LogicalPlan& logical,
                                    const PlannerOptions& options,
                                    SubscriptionSet* subscriptions,
                                    CompiledQuery* compiled) {
  USP_RETURN_NOT_OK(logical.Validate());
  PlanSummary& summary = compiled->summary_;

  // Logical rewrite first: push declared-read filters below
  // preserved-prefix maps so the (often expensive) map runs only on
  // surviving tuples. Everything downstream — key derivation included —
  // sees the rewritten plan.
  LogicalPlan plan = logical;
  plan.PushFiltersBelowMaps(&summary.pushed_filters);

  size_t num_sources = 0;
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    if (plan.kind(id) == LogicalPlan::NodeKind::kSource) ++num_sources;
  }

  // --- resolve watermark generation ---------------------------------------
  // Auto: derive the period from the plan's event-time spans — a quarter
  // of the smallest window slide / join range keeps several watermarks
  // per window (timely closure, bounded join buffers) at negligible
  // signalling cost — and turn generation off for plans with no
  // event-time state (nothing would consume the signal).
  summary.auto_watermark_period =
      options.watermark_period_us == PlannerOptions::kAutoWatermarkPeriod;
  int64_t watermark_period_us = options.watermark_period_us;
  if (summary.auto_watermark_period) {
    int64_t min_span = INT64_MAX;
    for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
      const LogicalPlan::Node& n = plan.node(id);
      if (n.kind == LogicalPlan::NodeKind::kAggregate && n.window) {
        min_span = std::min(min_span, n.window->slide_us);
      } else if (n.kind == LogicalPlan::NodeKind::kJoin &&
                 n.join_range_us > 0) {
        min_span = std::min(min_span, n.join_range_us);
      }
    }
    watermark_period_us =
        min_span == INT64_MAX ? 0 : std::max<int64_t>(1, min_span / 4);
  }
  summary.watermark_period_us = watermark_period_us;

  // --- resolve num_shards -------------------------------------------------
  // Auto: as many shards as the machine has cores (capped) when a
  // partition key exists; plans with no derivable key degrade to one
  // shard with the reason recorded, instead of failing a default compile.
  // Explicit values keep the strict behaviour: N > 1 without a key fails.
  summary.auto_num_shards = options.num_shards == PlannerOptions::kAutoShards;
  size_t num_shards = options.num_shards;
  ShardKeyDecision key;
  bool have_key = false;
  if (summary.auto_num_shards) {
    const size_t hw = options.hardware_concurrency_override > 0
                          ? options.hardware_concurrency_override
                          : std::max(1u, std::thread::hardware_concurrency());
    num_shards = std::min(hw, PlannerOptions::kMaxAutoShards);
    if (num_shards > 1) {
      auto key_or = DeriveShardKey(plan);
      if (key_or.ok()) {
        key = key_or.MoveValueUnsafe();
        have_key = true;
      } else {
        summary.auto_shard_note =
            "auto-sharding fell back to 1 shard: " +
            key_or.status().message();
        num_shards = 1;
      }
    }
  } else if (num_shards > 1) {
    USP_ASSIGN_OR_RETURN(key, DeriveShardKey(plan));
    have_key = true;
  }
  summary.num_shards = num_shards;

  // --- resolve ingest lanes ----------------------------------------------
  // Auto: one lane per source on sharded plans (each sensor feed pushes
  // from its own thread), one lane otherwise — a single-shard,
  // single-lane plan keeps the zero-thread DagExecutor backend and its
  // exact emission order.
  summary.auto_num_ingest_lanes =
      options.num_ingest_lanes == PlannerOptions::kAutoLanes;
  size_t num_lanes = summary.auto_num_ingest_lanes
                         ? (num_shards > 1 ? num_sources : 1)
                         : options.num_ingest_lanes;
  // Multi-lane ingest only guarantees PER-SOURCE timestamp order. A join
  // tolerates cross-source skew (its matched-pair set is skew-invariant),
  // but its emission order then regresses in timestamp. A windowed
  // aggregate downstream of the join absorbs that when watermarks flow:
  // join output never regresses below the join's propagated watermark
  // (output ts = max of an eligible pair; each side's future tuples are
  // >= its watermark), so switching the aggregate to watermark-only
  // window closure restores correct closure without cross-source order —
  // the relaxation that used to force such plans single-lane. With
  // watermarks disabled, the old refusal stands. A SECOND join consuming
  // join output stays refused either way: its per-side expiry clocks need
  // each input in timestamp order, which skewed join output never has.
  std::vector<char> watermark_only_aggs(plan.num_nodes(), 0);
  if (num_lanes > 1) {
    std::vector<char> join_upstream(plan.num_nodes(), 0);
    std::string blocked;  // "kind 'name'" of the first order-sensitive node
    std::string blocked_reason;
    for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
      const LogicalPlan::Node& n = plan.node(id);
      char up_in = 0;
      for (LogicalPlan::NodeId in : n.inputs) {
        if (join_upstream[in]) up_in = 1;
      }
      if (up_in && blocked.empty()) {
        if (n.kind == LogicalPlan::NodeKind::kAggregate) {
          if (watermark_period_us > 0) {
            watermark_only_aggs[id] = 1;  // relaxation: close by watermark
          } else {
            blocked = "windowed aggregate '" + n.name + "'";
            blocked_reason =
                " (enable watermarks — PlannerOptions::watermark_period_us"
                " — to lift this: watermark-gated closure tolerates the"
                " skewed join emission order)";
          }
        } else if (n.kind == LogicalPlan::NodeKind::kJoin) {
          blocked = "join '" + n.name + "'";
        }
      }
      join_upstream[id] =
          up_in || n.kind == LogicalPlan::NodeKind::kJoin ? 1 : 0;
    }
    if (!blocked.empty()) {
      std::fill(watermark_only_aggs.begin(), watermark_only_aggs.end(), 0);
      if (summary.auto_num_ingest_lanes) {
        num_lanes = 1;
        summary.auto_lane_note =
            "single-lane ingest: " + blocked +
            " sits downstream of a join and needs cross-source "
            "timestamp order";
      } else {
        return common::Status::InvalidArgument(
            "num_ingest_lanes > 1 is unsafe here: " + blocked +
            " sits downstream of a join, and multi-lane ingest only "
            "preserves per-source timestamp order — the skewed join "
            "output would corrupt it; use num_ingest_lanes = 1" +
            blocked_reason);
      }
    }
  }
  summary.num_ingest_lanes = num_lanes;

  const bool use_sharded = num_shards > 1 || num_lanes > 1;

  // --- resolve the re-batching target ------------------------------------
  summary.auto_target_batch_size =
      options.target_batch_size == PlannerOptions::kAutoBatchSize;
  size_t target_batch_size = 0;
  if (use_sharded) {
    target_batch_size = summary.auto_target_batch_size
                            ? ShardedExecutor::kDefaultInitialBatch
                            : options.target_batch_size;
  }
  summary.target_batch_size = target_batch_size;

  // Multiplexed plans: bind the subscription table with one partition per
  // shard — the same modulo placement the derived ingest key uses, so a
  // shard's partition holds exactly the exact-key subscriptions whose
  // groups that shard aggregates.
  std::shared_ptr<ShardedSubscriptionTable> dispatch_table;
  if (subscriptions != nullptr) {
    USP_RETURN_NOT_OK(subscriptions->Bind(num_shards));
    dispatch_table = subscriptions->table();
  }

  if (!use_sharded) {
    ShardContext ctx;
    ctx.shard_index = 0;
    ctx.num_shards = 1;
    ctx.cf_workspace = &compiled->local_workspace_;
    auto graph = std::make_unique<ExecGraph>();
    USP_RETURN_NOT_OK(BuildGraph(
        plan, options, ctx, /*record=*/true, graph.get(), &compiled->summary_,
        &compiled->sources_, &compiled->sinks_,
        [compiled, &options, &ctx](uncertain::SumStrategyKind kind) {
          return compiled->NewStrategy(kind, options.cf_grid_points,
                                       ctx.cf_workspace);
        },
        watermark_only_aggs, dispatch_table));
    USP_RETURN_NOT_OK(graph->Validate());
    compiled->dag_ = std::make_unique<stream::DagExecutor>(std::move(graph));
    // The single-DAG backend has no ingest lanes; CompiledQuery::PushBatch
    // generates the periodic watermarks itself.
    compiled->watermark_period_us_ = watermark_period_us;
    return common::Status::OK();
  }

  compiled->summary_.sharded = true;
  compiled->summary_.shard_key_source = key.source;
  // --- resolve thread pinning --------------------------------------------
  // Auto: pin shard workers and ingest lanes to distinct cores when the
  // machine has enough of them that placement matters (>= 4 hardware
  // threads). On smaller machines pinning to the few shared cores only
  // fights the OS scheduler.
  const size_t hw_for_pinning =
      options.hardware_concurrency_override > 0
          ? options.hardware_concurrency_override
          : std::max(1u, std::thread::hardware_concurrency());
  compiled->summary_.auto_pin_threads =
      options.pin_threads == PlannerOptions::PinThreads::kAuto;
  const bool pin_threads =
      options.pin_threads == PlannerOptions::PinThreads::kOn ||
      (options.pin_threads == PlannerOptions::PinThreads::kAuto &&
       hw_for_pinning >= 4);
  compiled->summary_.pin_threads = pin_threads;
  ShardedExecutor::Options sopts;
  sopts.num_shards = num_shards;
  sopts.num_ingest_lanes = num_lanes;
  sopts.target_batch_size = target_batch_size;
  sopts.auto_target_batch_size = summary.auto_target_batch_size;
  sopts.watermark_period_us = watermark_period_us;
  sopts.pin_threads = pin_threads;
  if (!have_key) {
    // Single shard behind a multi-lane ingest: partitioning is a no-op,
    // but the executor still requires a key function.
    key.fn = [](const Tuple&) { return uint64_t{0}; };
  }
  auto exec_or = ShardedExecutor::Create(
      sopts, std::move(key.fn),
      [&plan, &options, compiled, &watermark_only_aggs, &dispatch_table](
          ExecGraph* g, const ShardContext& ctx) {
        return BuildGraph(
            plan, options, ctx, /*record=*/ctx.shard_index == 0, g,
            &compiled->summary_, &compiled->sources_, &compiled->sinks_,
            [compiled, &options, &ctx](uncertain::SumStrategyKind kind) {
              return compiled->NewStrategy(kind, options.cf_grid_points,
                                           ctx.cf_workspace);
            },
            watermark_only_aggs, dispatch_table);
      });
  USP_RETURN_NOT_OK(exec_or.status());
  compiled->sharded_ = exec_or.MoveValueUnsafe();
  // Route each source to its lane, round-robin in declaration order (the
  // identity mapping when lanes were auto-chosen as one per source).
  size_t source_index = 0;
  for (LogicalPlan::NodeId id = 0; id < plan.num_nodes(); ++id) {
    if (plan.kind(id) != LogicalPlan::NodeKind::kSource) continue;
    const auto it = compiled->sources_.find(plan.node(id).name);
    if (it != compiled->sources_.end()) {
      compiled->lane_of_source_[it->second] = source_index % num_lanes;
    }
    ++source_index;
  }
  return common::Status::OK();
}

common::Result<std::unique_ptr<MultiplexedQuery>> Planner::CompileMultiplexed(
    const LogicalPlan& templ, std::shared_ptr<SubscriptionSet> subscriptions,
    const PlannerOptions& options) {
  if (subscriptions == nullptr) {
    return common::Status::InvalidArgument(
        "CompileMultiplexed needs a SubscriptionSet (it may be empty; "
        "subscriptions can be added after compilation)");
  }
  if (subscriptions->bound()) {
    return common::Status::InvalidArgument(
        "SubscriptionSet is already bound to a compiled plan; use one set "
        "per CompileMultiplexed call");
  }
  USP_RETURN_NOT_OK(templ.Validate());

  // Template shape: the sharing argument needs exactly one grouped,
  // windowed aggregate feeding one sink from one source — every
  // subscription then reads the same shared pane/CF state and differs
  // only in dispatch constants. Richer templates (joins, fan-out) are
  // per-query plans; compile them with Compile().
  size_t num_sources = 0, num_sinks = 0, num_joins = 0;
  std::vector<LogicalPlan::NodeId> agg_nodes;
  for (LogicalPlan::NodeId id = 0; id < templ.num_nodes(); ++id) {
    switch (templ.kind(id)) {
      case LogicalPlan::NodeKind::kSource:
        ++num_sources;
        break;
      case LogicalPlan::NodeKind::kSink:
        ++num_sinks;
        break;
      case LogicalPlan::NodeKind::kJoin:
        ++num_joins;
        break;
      case LogicalPlan::NodeKind::kAggregate:
        agg_nodes.push_back(id);
        break;
      default:
        break;
    }
  }
  if (num_sources != 1 || num_sinks != 1 || num_joins != 0 ||
      agg_nodes.size() != 1) {
    return common::Status::InvalidArgument(
        "multiplexed template must be source -> [filters/maps] -> one "
        "windowed group-by aggregate -> one sink (got " +
        std::to_string(num_sources) + " source(s), " +
        std::to_string(agg_nodes.size()) + " aggregate(s), " +
        std::to_string(num_joins) + " join(s), " + std::to_string(num_sinks) +
        " sink(s))");
  }
  const LogicalPlan::Node& agg = templ.node(agg_nodes[0]);
  if (!agg.group_key_attr.has_value() && !agg.group_key_fn) {
    return common::Status::InvalidArgument(
        "multiplexed template aggregate '" + agg.name +
        "' has no group key; subscription scopes select group keys, so an "
        "ungrouped aggregate has nothing to dispatch on");
  }
  if (templ.partition_key()) {
    return common::Status::InvalidArgument(
        "multiplexed templates cannot use PartitionBy(): the subscription "
        "table must partition exactly like the data, so the planner owns "
        "placement (drop the override; the group key derives it)");
  }

  std::unique_ptr<MultiplexedQuery> mq(new MultiplexedQuery());
  USP_RETURN_NOT_OK(CompileInto(templ, options, subscriptions.get(), mq.get()));
  mq->summary_.multiplexed = true;
  mq->summary_.subscriptions_at_compile = subscriptions->size();
  mq->subscriptions_ = std::move(subscriptions);
  return mq;
}

common::Result<std::unique_ptr<CompiledQuery>> Query::Compile() const {
  return Compile(PlannerOptions{});
}

common::Result<std::unique_ptr<CompiledQuery>> Query::Compile(
    const PlannerOptions& options) const {
  USP_ASSIGN_OR_RETURN(LogicalPlan plan, Build());
  return Planner::Compile(plan, options);
}

common::Result<std::unique_ptr<MultiplexedQuery>> Query::CompileMultiplexed(
    std::shared_ptr<SubscriptionSet> subscriptions) const {
  return CompileMultiplexed(std::move(subscriptions), PlannerOptions{});
}

common::Result<std::unique_ptr<MultiplexedQuery>> Query::CompileMultiplexed(
    std::shared_ptr<SubscriptionSet> subscriptions,
    const PlannerOptions& options) const {
  USP_ASSIGN_OR_RETURN(LogicalPlan plan, Build());
  return Planner::CompileMultiplexed(plan, std::move(subscriptions), options);
}

}  // namespace query
}  // namespace usp
