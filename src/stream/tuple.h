// Stream tuples with timestamps, uncertain attributes, and lineage.
//
// Lineage (§5.2) is a set of base-tuple ids recording which independent
// upstream tuples produced this tuple; downstream operators use shared
// lineage to detect correlation (e.g. a join that matched one tuple against
// many). Exact result distributions over correlated inputs are computed
// from shared distribution handles (uncertain::LineageAwareSum), not by
// re-fetching archived base tuples.

#ifndef USP_STREAM_TUPLE_H_
#define USP_STREAM_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/value.h"

namespace usp {
namespace stream {

/// Globally unique tuple identifier (process-wide atomic counter).
using TupleId = uint64_t;

/// Allocate the next TupleId.
TupleId NextTupleId();

/// \brief Read-only view of a tuple's contiguous values or lineage ids.
/// Valid until the tuple it came from is modified, moved or destroyed.
template <typename T>
class TupleView {
 public:
  using value_type = T;
  using iterator = const T*;
  using const_iterator = const T*;

  TupleView(const T* data, size_t size) : data_(data), size_(size) {}
  TupleView(const std::vector<T>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }

  friend bool operator==(TupleView a, TupleView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator!=(TupleView a, TupleView b) { return !(a == b); }

 private:
  const T* data_;
  size_t size_;
};

using ValueView = TupleView<Value>;
using LineageView = TupleView<TupleId>;

/// \brief One stream element: timestamp, attribute values, id, lineage.
///
/// Timestamps are microseconds; operators assume per-stream non-decreasing
/// timestamps (the usual DSMS ordering contract).
///
/// Copying a narrow tuple allocates nothing: up to kInlineValues values
/// live inside the object (a wider tuple keeps them in one heap vector,
/// adopted from the constructor's vector), and a base tuple's lineage
/// {id} is read from the id itself. A merged lineage (window, group and
/// join outputs) is an immutable heap block that copies share, so the
/// rows a subscription dispatch tags per match do not copy it.
class Tuple {
 public:
  /// Values stored without a heap block. Two covers a keyed reading
  /// (key, distribution) and a single-aggregate output row (key, value).
  static constexpr size_t kInlineValues = 2;

  Tuple() : id_(NextTupleId()), timestamp_(0) {}
  Tuple(int64_t timestamp_us, std::vector<Value> values);
  Tuple(const Tuple& other);
  Tuple(Tuple&& other) noexcept;
  Tuple& operator=(const Tuple& other);
  Tuple& operator=(Tuple&& other) noexcept;
  ~Tuple() { DestroyValues(); }

  TupleId id() const { return id_; }
  int64_t timestamp() const { return timestamp_; }
  void set_timestamp(int64_t ts) { timestamp_ = ts; }

  size_t num_values() const {
    return spilled() ? heap_values_.size() : num_inline_;
  }
  const Value& value(size_t i) const { return values_data()[i]; }
  Value& mutable_value(size_t i) {
    return spilled() ? heap_values_[i] : inline_values_[i];
  }
  ValueView values() const { return {values_data(), num_values()}; }
  void AppendValue(Value v);

  /// Lineage: sorted set of base tuple ids this tuple derives from. A base
  /// tuple's lineage is just its own id.
  LineageView lineage() const {
    if (merged_lineage_) return *merged_lineage_;
    return {&id_, base_lineage_ ? 1u : 0u};
  }
  /// Mark this tuple as a base tuple (lineage = {id}).
  void InitBaseLineage() {
    merged_lineage_.reset();
    base_lineage_ = true;
  }
  void SetLineage(std::vector<TupleId> ids);
  /// Union of this tuple's lineage with another's.
  void MergeLineageFrom(const Tuple& other);
  /// True if the two tuples share any base tuple (=> correlated results).
  bool SharesLineageWith(const Tuple& other) const;

  /// Rough heap footprint in bytes, for buffered-state accounting
  /// (OperatorMetrics::buffered_bytes): the object plus its heap storage
  /// (spilled values, merged lineage ids); string payloads by length,
  /// distribution payloads at a flat per-handle estimate (the pdf itself
  /// is a shared immutable handle, so each buffered reference is charged
  /// once at the handle rate).
  size_t ApproxBytes() const;

  std::string ToString() const;

 private:
  /// num_inline_ value marking that the values live in heap_values_.
  static constexpr uint8_t kSpilled = 0xFF;

  bool spilled() const { return num_inline_ == kSpilled; }
  const Value* values_data() const {
    return spilled() ? heap_values_.data() : inline_values_;
  }
  /// Construct this tuple's (destroyed or never-built) value storage from
  /// other's, copying or moving.
  void CopyValuesFrom(const Tuple& other);
  void MoveValuesFrom(Tuple&& other) noexcept;
  void DestroyValues() noexcept;

  TupleId id_;
  int64_t timestamp_;
  union {
    Value inline_values_[kInlineValues];
    std::vector<Value> heap_values_;
  };
  /// Null for an empty or base lineage; never empty when set.
  std::shared_ptr<const std::vector<TupleId>> merged_lineage_;
  uint8_t num_inline_ = 0;
  /// Lineage is {id_} (when merged_lineage_ is null).
  bool base_lineage_ = false;
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_TUPLE_H_
