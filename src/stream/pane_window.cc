#include "stream/pane_window.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <numeric>
#include <string_view>

#include "stream/batch.h"

namespace usp {
namespace stream {

using common::CeilToMultiple;
using common::FloorToMultiple;

namespace {

/// Slot assignment under signature sharing: each column maps to the slot
/// of the first earlier column with the same non-empty partial_signature,
/// or a fresh slot. Returns slot_of (per column); fills `slot_rep` with
/// the representative column per slot.
std::vector<size_t> AssignPartialSlots(
    const std::vector<PaneAggregateSpec>& specs,
    std::vector<size_t>* slot_rep) {
  std::vector<size_t> slot_of(specs.size());
  slot_rep->clear();
  for (size_t a = 0; a < specs.size(); ++a) {
    size_t slot = slot_rep->size();
    if (!specs[a].partial_signature.empty()) {
      for (size_t s = 0; s < slot_rep->size(); ++s) {
        if (specs[(*slot_rep)[s]].partial_signature ==
            specs[a].partial_signature) {
          slot = s;
          break;
        }
      }
    }
    if (slot == slot_rep->size()) slot_rep->push_back(a);
    slot_of[a] = slot;
  }
  return slot_of;
}

}  // namespace

size_t CountDistinctPartialSlots(const std::vector<PaneAggregateSpec>& specs) {
  std::vector<size_t> slot_rep;
  AssignPartialSlots(specs, &slot_rep);
  return slot_rep.size();
}

PanedGroupByAggregateOperator::PanedGroupByAggregateOperator(
    std::string name, WindowSpec spec, KeyFn key_fn,
    std::vector<PaneAggregateSpec> aggregates, HavingFn having)
    : Operator(std::move(name)),
      spec_(spec),
      pane_us_(std::gcd(spec.size_us, spec.slide_us)),
      key_fn_(std::move(key_fn)),
      aggregates_(std::move(aggregates)),
      having_(std::move(having)),
      next_close_end_(std::numeric_limits<int64_t>::max()),
      last_emitted_start_(std::numeric_limits<int64_t>::min()) {
  assert(spec.size_us > 0 && spec.slide_us > 0 &&
         spec.slide_us <= spec.size_us);
  slot_of_ = AssignPartialSlots(aggregates_, &slot_rep_);
}

int64_t PanedGroupByAggregateOperator::EarliestOpenWindowStart() const {
  // Pane boundaries are multiples of gcd(size, slide), so window membership
  // is uniform across a pane: pane [p, p+g) belongs to window [s, s+size)
  // iff s <= p and p + g <= s + size. The earliest candidate derives from
  // the earliest retained pane, bounded below by the emission cursor (a
  // pane outlives windows it already served).
  const int64_t p0 = panes_.begin()->first;
  int64_t s = CeilToMultiple(p0 + pane_us_ - spec_.size_us, spec_.slide_us);
  if (last_emitted_start_ != std::numeric_limits<int64_t>::min()) {
    s = std::max(s, last_emitted_start_ + spec_.slide_us);
  }
  return s;
}

common::Status PanedGroupByAggregateOperator::AddToPane(Pane& pane,
                                                        const Tuple& tuple,
                                                        std::string key) {
  // The gauge charges what the pane keeps: each tuple's lineage ids, and
  // per new group its key and partial slots (the tuple itself is not
  // retained).
  uint64_t bytes = tuple.lineage().size() * sizeof(TupleId);
  auto [it, inserted] = pane.groups.try_emplace(std::move(key));
  GroupState& gs = it->second;
  if (inserted) {
    pane.order.emplace_back(&it->first, &gs);
    gs.partials.reserve(slot_rep_.size());
    for (const size_t rep : slot_rep_) {
      gs.partials.push_back(aggregates_[rep].make_partial());
    }
    bytes += sizeof(*it) + it->first.size() +
             slot_rep_.size() * sizeof(std::unique_ptr<PanePartial>);
  }
  pane.approx_bytes += bytes;
  buffered_bytes_ += bytes;
  mutable_metrics().buffered_bytes = buffered_bytes_;
  // One accumulation per SLOT: columns sharing a partial_signature (e.g.
  // SUM and AVG of one attribute) pay the per-tuple work once.
  for (size_t s = 0; s < slot_rep_.size(); ++s) {
    USP_RETURN_NOT_OK(aggregates_[slot_rep_[s]].add(gs.partials[s].get(),
                                                    tuple));
  }
  gs.lineage.insert(gs.lineage.end(), tuple.lineage().begin(),
                    tuple.lineage().end());
  return common::Status::OK();
}

common::Status PanedGroupByAggregateOperator::Add(const Tuple& tuple,
                                                  std::string key) {
  const int64_t pane_start = FloorToMultiple(tuple.timestamp(), pane_us_);
  const bool was_empty = panes_.empty();
  Pane& pane = panes_[pane_start];
  if (was_empty) {
    next_close_end_ = EarliestOpenWindowStart() + spec_.size_us;
  }
  return AddToPane(pane, tuple, std::move(key));
}

common::Status PanedGroupByAggregateOperator::EmitWindow(int64_t start,
                                                         Collector* out) {
  const int64_t end = start + spec_.size_us;
  std::vector<PanePartial*> partials;
  // One output row from the group's states (ascending pane order).
  auto emit_group = [&](const std::string& key, GroupState* const* states,
                        size_t num_states) -> common::Status {
    Tuple result(end, {Value(key)});
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      partials.clear();
      for (size_t i = 0; i < num_states; ++i) {
        partials.push_back(states[i]->partials[slot_of_[a]].get());
      }
      auto v = aggregates_[a].finalize(partials);
      if (!v.ok()) return v.status();
      result.AppendValue(v.MoveValueUnsafe());
    }
    std::vector<TupleId> lineage;
    for (size_t i = 0; i < num_states; ++i) {
      lineage.insert(lineage.end(), states[i]->lineage.begin(),
                     states[i]->lineage.end());
    }
    result.SetLineage(std::move(lineage));
    if (!having_ || having_(result)) out->Emit(std::move(result));
    return common::Status::OK();
  };
  const auto first = panes_.lower_bound(start);
  const auto last = panes_.lower_bound(end);
  if (first != last && std::next(first) == last) {
    // One pane (every tumbling window): its first-seen order is the
    // window's.
    for (const auto& [key, gs] : first->second.order) {
      USP_RETURN_NOT_OK(emit_group(*key, &gs, 1));
    }
  } else {
    // Panes are time-ordered and each records its own first-seen order,
    // so the first pane mentioning a key fixes its position.
    std::unordered_map<std::string_view, size_t> index;
    std::vector<std::pair<const std::string*, std::vector<GroupState*>>>
        groups;
    for (auto it = first; it != last; ++it) {
      for (const auto& [key, gs] : it->second.order) {
        const auto [slot, inserted] = index.try_emplace(*key, groups.size());
        if (inserted) groups.emplace_back(key, std::vector<GroupState*>());
        groups[slot->second].second.push_back(gs);
      }
    }
    for (const auto& [key, states] : groups) {
      USP_RETURN_NOT_OK(emit_group(*key, states.data(), states.size()));
    }
  }
  if (grid_cache_probe_) {
    const auto [hits, misses] = grid_cache_probe_();
    mutable_metrics().grid_cache_hits = hits;
    mutable_metrics().grid_cache_misses = misses;
  }
  last_emitted_start_ = start;
  return common::Status::OK();
}

void PanedGroupByAggregateOperator::EvictPanesServedBy(int64_t start) {
  // Evict panes whose last containing window (the largest slide multiple
  // <= pane start) has now been emitted.
  while (!panes_.empty() &&
         FloorToMultiple(panes_.begin()->first, spec_.slide_us) <= start) {
    const uint64_t bytes = panes_.begin()->second.approx_bytes;
    buffered_bytes_ -= bytes < buffered_bytes_ ? bytes : buffered_bytes_;
    panes_.erase(panes_.begin());
  }
  mutable_metrics().buffered_bytes = buffered_bytes_;
}

common::Status PanedGroupByAggregateOperator::CloseWindowsBefore(
    int64_t ts, Collector* out) {
  while (!panes_.empty()) {
    const int64_t s = EarliestOpenWindowStart();
    if (s + spec_.size_us > ts) {
      next_close_end_ = s + spec_.size_us;
      return common::Status::OK();
    }
    USP_RETURN_NOT_OK(EmitWindow(s, out));
    EvictPanesServedBy(s);
  }
  next_close_end_ = std::numeric_limits<int64_t>::max();
  return common::Status::OK();
}

common::Status PanedGroupByAggregateOperator::OnWatermark(int64_t watermark,
                                                          Collector* out) {
  // Same closure rule as the arrival path: the watermark bounds every
  // future timestamp from below, so windows ending at or below it are
  // complete regardless of input-order anomalies the watermark-only mode
  // tolerates.
  if (watermark > applied_watermark_) applied_watermark_ = watermark;
  return CloseWindowsBefore(watermark, out);
}

common::Status PanedGroupByAggregateOperator::CheckNotBelowWatermark(
    int64_t ts) const {
  if (!watermark_only_closure_) return common::Status::OK();
  return CheckTupleNotBelowWatermark(name(), spec_, applied_watermark_, ts);
}

common::Status PanedGroupByAggregateOperator::Process(const Tuple& tuple,
                                                      Collector* out) {
  if (!watermark_only_closure_ && tuple.timestamp() >= next_close_end_) {
    USP_RETURN_NOT_OK(CloseWindowsBefore(tuple.timestamp(), out));
  }
  USP_RETURN_NOT_OK(CheckNotBelowWatermark(tuple.timestamp()));
  return Add(tuple, key_fn_(tuple));
}

common::Status PanedGroupByAggregateOperator::ProcessBatch(
    const TupleBatch& batch, Collector* out) {
  // Same per-tuple logic, but consecutive tuples falling into the same
  // pane reuse the pane map node (std::map nodes are stable; the cache is
  // only dropped when a closing scan may evict panes).
  Pane* pane = nullptr;
  int64_t pane_start = 0;
  for (const Tuple& tuple : batch) {
    const int64_t ts = tuple.timestamp();
    if (!watermark_only_closure_ && ts >= next_close_end_) {
      USP_RETURN_NOT_OK(CloseWindowsBefore(ts, out));
      pane = nullptr;
    }
    USP_RETURN_NOT_OK(CheckNotBelowWatermark(ts));
    const int64_t start = FloorToMultiple(ts, pane_us_);
    if (pane == nullptr || start != pane_start) {
      const bool was_empty = panes_.empty();
      pane = &panes_[start];
      pane_start = start;
      if (was_empty) {
        next_close_end_ = EarliestOpenWindowStart() + spec_.size_us;
      }
    }
    USP_RETURN_NOT_OK(AddToPane(*pane, tuple, key_fn_(tuple)));
  }
  return common::Status::OK();
}

common::Status PanedGroupByAggregateOperator::Finish(Collector* out) {
  // End-of-stream: flush every remaining window unconditionally (no
  // ts comparison, which would overflow near INT64_MAX).
  while (!panes_.empty()) {
    const int64_t s = EarliestOpenWindowStart();
    USP_RETURN_NOT_OK(EmitWindow(s, out));
    EvictPanesServedBy(s);
  }
  next_close_end_ = std::numeric_limits<int64_t>::max();
  return common::Status::OK();
}

}  // namespace stream
}  // namespace usp
