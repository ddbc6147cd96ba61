#include "stream/tuple.h"

#include <atomic>
#include <cstdio>
#include <iterator>
#include <new>

namespace usp {
namespace stream {

TupleId NextTupleId() {
  static std::atomic<TupleId> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Tuple::Tuple(int64_t timestamp_us, std::vector<Value> values)
    : id_(NextTupleId()), timestamp_(timestamp_us) {
  if (values.size() > kInlineValues) {
    new (&heap_values_) std::vector<Value>(std::move(values));
    num_inline_ = kSpilled;
    return;
  }
  for (Value& v : values) new (&inline_values_[num_inline_++]) Value(std::move(v));
}

Tuple::Tuple(const Tuple& other)
    : id_(other.id_),
      timestamp_(other.timestamp_),
      merged_lineage_(other.merged_lineage_),
      base_lineage_(other.base_lineage_) {
  CopyValuesFrom(other);
}

Tuple::Tuple(Tuple&& other) noexcept
    : id_(other.id_),
      timestamp_(other.timestamp_),
      merged_lineage_(std::move(other.merged_lineage_)),
      base_lineage_(other.base_lineage_) {
  MoveValuesFrom(std::move(other));
}

Tuple& Tuple::operator=(const Tuple& other) {
  if (this != &other) *this = Tuple(other);
  return *this;
}

Tuple& Tuple::operator=(Tuple&& other) noexcept {
  if (this == &other) return *this;
  DestroyValues();
  MoveValuesFrom(std::move(other));
  id_ = other.id_;
  timestamp_ = other.timestamp_;
  merged_lineage_ = std::move(other.merged_lineage_);
  base_lineage_ = other.base_lineage_;
  return *this;
}

void Tuple::CopyValuesFrom(const Tuple& other) {
  if (other.spilled()) {
    new (&heap_values_) std::vector<Value>(other.heap_values_);
    num_inline_ = kSpilled;
    return;
  }
  num_inline_ = 0;
  for (; num_inline_ < other.num_inline_; ++num_inline_) {
    new (&inline_values_[num_inline_]) Value(other.inline_values_[num_inline_]);
  }
}

void Tuple::MoveValuesFrom(Tuple&& other) noexcept {
  if (other.spilled()) {
    new (&heap_values_) std::vector<Value>(std::move(other.heap_values_));
    num_inline_ = kSpilled;
    return;
  }
  num_inline_ = 0;
  for (; num_inline_ < other.num_inline_; ++num_inline_) {
    new (&inline_values_[num_inline_])
        Value(std::move(other.inline_values_[num_inline_]));
  }
}

void Tuple::DestroyValues() noexcept {
  if (spilled()) {
    heap_values_.~vector();
  } else {
    for (uint8_t i = 0; i < num_inline_; ++i) inline_values_[i].~Value();
  }
  num_inline_ = 0;
}

void Tuple::AppendValue(Value v) {
  if (spilled()) {
    heap_values_.push_back(std::move(v));
    return;
  }
  if (num_inline_ < kInlineValues) {
    new (&inline_values_[num_inline_++]) Value(std::move(v));
    return;
  }
  // Exactly one slot more: a tagged or annotated row grows by one value
  // and is then buffered as is.
  std::vector<Value> spill;
  spill.reserve(kInlineValues + 1);
  for (uint8_t i = 0; i < num_inline_; ++i) {
    spill.push_back(std::move(inline_values_[i]));
  }
  spill.push_back(std::move(v));
  DestroyValues();
  new (&heap_values_) std::vector<Value>(std::move(spill));
  num_inline_ = kSpilled;
}

void Tuple::SetLineage(std::vector<TupleId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  base_lineage_ = ids.size() == 1 && ids[0] == id_;
  if (ids.empty() || base_lineage_) {
    merged_lineage_.reset();
    return;
  }
  merged_lineage_ =
      std::make_shared<const std::vector<TupleId>>(std::move(ids));
}

void Tuple::MergeLineageFrom(const Tuple& other) {
  const LineageView mine = lineage();
  const LineageView theirs = other.lineage();
  std::vector<TupleId> merged;
  merged.reserve(mine.size() + theirs.size());
  std::set_union(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                 std::back_inserter(merged));
  SetLineage(std::move(merged));
}

bool Tuple::SharesLineageWith(const Tuple& other) const {
  const LineageView mine = lineage();
  const LineageView theirs = other.lineage();
  auto it1 = mine.begin();
  auto it2 = theirs.begin();
  while (it1 != mine.end() && it2 != theirs.end()) {
    if (*it1 == *it2) return true;
    if (*it1 < *it2) {
      ++it1;
    } else {
      ++it2;
    }
  }
  return false;
}

size_t Tuple::ApproxBytes() const {
  // Flat charge per buffered distribution handle: the control block plus a
  // typical small-parameter pdf object (Gaussian/GMM component scale).
  constexpr size_t kDistributionHandleBytes = 128;
  size_t bytes = sizeof(Tuple);
  if (spilled()) bytes += heap_values_.capacity() * sizeof(Value);
  if (merged_lineage_) bytes += merged_lineage_->size() * sizeof(TupleId);
  for (const Value& v : values()) {
    if (v.is_string()) {
      bytes += v.AsString().capacity();
    } else if (v.is_distribution()) {
      bytes += kDistributionHandleBytes;
    }
  }
  return bytes;
}

std::string Tuple::ToString() const {
  char head[48];
  snprintf(head, sizeof(head), "#%llu@%lld[",
           static_cast<unsigned long long>(id_),
           static_cast<long long>(timestamp_));
  std::string s = head;
  const ValueView vals = values();
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i) s += ", ";
    s += vals[i].ToString();
  }
  s += "]";
  return s;
}

}  // namespace stream
}  // namespace usp
