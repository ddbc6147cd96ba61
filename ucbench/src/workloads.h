// The four workloads. Each builds its inputs from --seed, runs against the
// program's public API only, checks the output with its oracle, and fills
// a RunReport with the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
#ifndef UCBENCH_WORKLOADS_H_
#define UCBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"
#include "oracles.h"
#include "replay.h"
#include "stream/batch.h"
#include "stream/tuple.h"

namespace ucbench {

RunReport RunQ1KeyedSum(const Options& opt, Tracer* tracer);
RunReport RunSlidingCfInversion(const Options& opt, Tracer* tracer);
RunReport RunAlertsOpenLoop(const Options& opt, Tracer* tracer);
RunReport RunRfidFireCode(const Options& opt, Tracer* tracer);

struct WorkloadEntry {
  const char* name;
  RunReport (*run)(const Options&, Tracer*);
};
const std::vector<WorkloadEntry>& Workloads();

/// Result row [key, agg_1, ...] reduced to the oracle's view of column
/// `col`: mean and variance of a distribution, or the value itself (with
/// variance 0) for a certain number.
AggRow ToAggRow(const usp::stream::Tuple& row, size_t col);

/// The groups behind up to `want` evenly spaced rows of `output` (rows
/// [key, sum, ...] of a plan grouped by input attribute 0 over
/// distribution attribute 1, windows of `size` sliding by `slide`), with
/// each row's emitted SUM: the shared sample of result_error and the layer
/// replay.
std::vector<ErrorSample> SampleGroups(
    const std::vector<usp::stream::Tuple>& output,
    const std::vector<usp::stream::TupleBatch>& inputs, int64_t size,
    int64_t slide, size_t want);

/// Rows per run in the result_error / layer-replay sample.
constexpr size_t kErrorSampleRows = 128;

/// The reference grid for result_error: 8x the planner's default
/// CF-inversion grid.
size_t ReferenceGridPoints();

}  // namespace ucbench

#endif  // UCBENCH_WORKLOADS_H_
