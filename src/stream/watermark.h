// Per-source periodic watermark generation, shared by the two ingest
// backends (ShardedExecutor lanes and CompiledQuery's single-DAG path) so
// the gate arithmetic — INT64_MIN sentinels, the "advanced a full period"
// test, monotone commit — has exactly one implementation to evolve (e.g.
// toward a wall-clock idle timer, see ROADMAP). The generated watermark
// is the source's max ingested timestamp: ingest requires per-source
// timestamp order, so no future tuple of the source can fall below it.

#ifndef USP_STREAM_WATERMARK_H_
#define USP_STREAM_WATERMARK_H_

#include <algorithm>
#include <cstdint>
#include <optional>

namespace usp {
namespace stream {

/// One source's generation state: max ingested timestamp + last emitted
/// watermark. Single-writer (the source's producer thread / lane).
struct SourceWatermarkClock {
  int64_t max_ts = INT64_MIN;
  int64_t last_watermark = INT64_MIN;

  /// Observe a batch's max timestamp; returns the watermark to emit (the
  /// max ingested timestamp) when it has advanced at least `period_us`
  /// past the last committed one (always fires on the first batch), or
  /// nullopt. Does NOT record the emission — callers run the returned
  /// value through TryCommit on the actual send path, so explicit
  /// PushWatermark and periodic generation share one monotone gate.
  std::optional<int64_t> Advance(int64_t batch_max_ts, int64_t period_us) {
    if (period_us <= 0 || batch_max_ts == INT64_MIN) return std::nullopt;
    max_ts = std::max(max_ts, batch_max_ts);
    if (last_watermark == INT64_MIN || max_ts - last_watermark >= period_us) {
      return max_ts;
    }
    return std::nullopt;
  }

  /// Monotone commit: records and returns true when `watermark` advances
  /// past the last committed one; false (emit nothing) otherwise, so
  /// re-sends and regressions are no-ops for every caller.
  bool TryCommit(int64_t watermark) {
    if (watermark <= last_watermark) return false;
    last_watermark = watermark;
    return true;
  }
};

}  // namespace stream
}  // namespace usp

#endif  // USP_STREAM_WATERMARK_H_
