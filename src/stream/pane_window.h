// Pane-based windowed group-by-aggregate: the planner's aggregation path
// for every window. A pane is the gcd(size, slide)-aligned time segment;
// every window is a union of consecutive panes, so per-tuple work (key
// extraction, aggregate accumulation) happens once per pane instead of
// once per overlapping window, and a tumbling window is a single pane of
// per-group partials — no tuple is copied into a window buffer.
// Aggregates plug in as type-erased pane partials (PaneAggregateSpec); the
// uncertain:: layer provides partials that exploit additivity of the
// paper's §5.1 math — running cumulant sums for CLT SUM, the two cumulant
// probe CF products for CF-approx SUM, cached per-pane CF grids for
// CF-inversion SUM, and accumulated log-CDF grids for MAX/MIN order
// statistics — and finalizes single-pane windows with the exact
// per-window kernels.
//
// Semantics match GroupByAggregateOperator exactly: windows close on event
// time (a tuple with ts >= end arrives, or end-of-stream), outputs are
// [group_key, agg_1..agg_m] with timestamp = window end, group order is
// first-seen arrival order within the window, lineage is the group's input
// lineage union, and HAVING filters emitted rows.

#ifndef USP_STREAM_PANE_WINDOW_H_
#define USP_STREAM_PANE_WINDOW_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/group_by.h"
#include "stream/window.h"

namespace usp {
namespace stream {

/// Opaque per-(pane, group) accumulator state. Concrete partials live in
/// the layer that defines the aggregate (e.g. uncertain::).
class PanePartial {
 public:
  virtual ~PanePartial() = default;
};

/// One output aggregate column computed from pane partials.
struct PaneAggregateSpec {
  std::string output_name;
  /// Fresh empty partial for a new (pane, group) cell.
  std::function<std::unique_ptr<PanePartial>()> make_partial;
  /// Accumulate one tuple (arrival order within the pane).
  std::function<common::Status(PanePartial*, const Tuple&)> add;
  /// Combine the window's partials (ascending pane order; one entry per
  /// pane where the group appeared) into the output value. Partials may
  /// mutate (lazily computed caches shared across overlapping windows).
  std::function<common::Result<Value>(const std::vector<PanePartial*>&)>
      finalize;
  /// Accumulator-sharing key. Two specs with equal non-empty signatures
  /// promise identical make_partial/add behaviour (only finalize may
  /// differ — e.g. SUM and AVG over one attribute share partials and
  /// diverge only in the denominator), so the operator accumulates ONE
  /// partial per (pane, group) for the whole signature class and each
  /// column finalizes from the shared state. Empty = never shared.
  std::string partial_signature;
};

/// Number of distinct accumulator slots `aggregates` would occupy under
/// signature sharing (== aggregates.size() when nothing is shared).
size_t CountDistinctPartialSlots(const std::vector<PaneAggregateSpec>& specs);

/// \brief Windowed GROUP BY over pane-incremental aggregates.
///
/// Accepts any WindowSpec; pane width is gcd(size, slide), so tumbling
/// windows degenerate to one pane per window and sliding windows with
/// overlap k touch each pane from k windows while paying its accumulation
/// cost once.
class PanedGroupByAggregateOperator final : public Operator {
 public:
  using KeyFn = GroupByAggregateOperator::KeyFn;
  using HavingFn = GroupByAggregateOperator::HavingFn;

  PanedGroupByAggregateOperator(std::string name, WindowSpec spec,
                                KeyFn key_fn,
                                std::vector<PaneAggregateSpec> aggregates,
                                HavingFn having = nullptr);

  int64_t pane_us() const { return pane_us_; }

  /// Out-of-order input mode (same contract as
  /// WindowedOperator::set_watermark_only_closure): pane assignment is
  /// order-independent, so only closure moves to the watermark.
  void set_watermark_only_closure(bool on) { watermark_only_closure_ = on; }

  /// Metrics hook: reads the shard's cross-group CF grid-cache counters
  /// (hits, misses). The planner installs it when grid sharing is enabled
  /// so each window close refreshes OperatorMetrics::grid_cache_hits /
  /// grid_cache_misses.
  using GridCacheProbe = std::function<std::pair<uint64_t, uint64_t>()>;
  void set_grid_cache_probe(GridCacheProbe probe) {
    grid_cache_probe_ = std::move(probe);
  }

 protected:
  common::Status Process(const Tuple& tuple, Collector* out) override;
  common::Status ProcessBatch(const TupleBatch& batch,
                              Collector* out) override;
  /// Closes every window with end <= watermark.
  common::Status OnWatermark(int64_t watermark, Collector* out) override;
  common::Status Finish(Collector* out) override;

 private:
  struct GroupState {
    std::vector<std::unique_ptr<PanePartial>> partials;  // one per SLOT
    std::vector<TupleId> lineage;
  };
  struct Pane {
    /// Node-based: keys and states keep their addresses as the pane
    /// grows, so `order` can point into it. Iteration order is unused.
    std::unordered_map<std::string, GroupState> groups;
    /// The pane's groups in first-seen arrival order.
    std::vector<std::pair<const std::string*, GroupState*>> order;
    /// Approx bytes charged to this pane (lineage ids, plus key and
    /// partial slots per group), subtracted from the gauge on eviction.
    uint64_t approx_bytes = 0;
  };

  common::Status Add(const Tuple& tuple, std::string key);
  /// Shared accumulation body of the per-tuple and batch paths.
  common::Status AddToPane(Pane& pane, const Tuple& tuple, std::string key);
  common::Status CloseWindowsBefore(int64_t ts, Collector* out);
  common::Status EmitWindow(int64_t start, Collector* out);
  /// Drop leading panes fully covered by the just-emitted window `start`,
  /// keeping the buffered_bytes gauge in sync.
  void EvictPanesServedBy(int64_t start);
  /// Earliest window start that could still close, given the earliest
  /// retained pane.
  int64_t EarliestOpenWindowStart() const;

  /// Loud guard for watermark-only mode (same contract as
  /// WindowedOperator::CheckNotBelowWatermark).
  common::Status CheckNotBelowWatermark(int64_t ts) const;

  WindowSpec spec_;
  int64_t pane_us_;
  KeyFn key_fn_;
  std::vector<PaneAggregateSpec> aggregates_;
  /// Accumulator slot per aggregate column: columns with equal non-empty
  /// partial_signature share one slot (and therefore one partial per
  /// (pane, group) — `add` runs once per slot, each column's own
  /// `finalize` reads the shared state).
  std::vector<size_t> slot_of_;
  /// Representative aggregate index per slot (owns make_partial/add).
  std::vector<size_t> slot_rep_;
  HavingFn having_;
  GridCacheProbe grid_cache_probe_;
  bool watermark_only_closure_ = false;
  /// Highest watermark applied via OnWatermark (INT64_MIN before any).
  int64_t applied_watermark_ = std::numeric_limits<int64_t>::min();
  /// Sum of panes_' approx_bytes; mirrored into buffered_bytes.
  uint64_t buffered_bytes_ = 0;
  std::map<int64_t, Pane> panes_;  // pane start -> contents
  /// Cached end of the earliest open window; tuples below it skip the
  /// closing scan entirely. INT64_MAX while no pane exists.
  int64_t next_close_end_;
  /// Start of the last emitted window (INT64_MIN before the first): a pane
  /// can outlive windows it already served, so closing must not revisit
  /// starts at or below this.
  int64_t last_emitted_start_;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_PANE_WINDOW_H_
