// Layer replay: a fixed seeded sample of a workload's own window groups,
// fed single-threaded into the public stats/uncertain functions and timed
// per call. It gives the kernel cost per window without instrumenting the
// program. Also home of result_error, the Table 2 answer-quality distance.
#ifndef UCBENCH_REPLAY_H_
#define UCBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "stats/distribution.h"

namespace ucbench {

using Group = std::vector<const usp::stats::Distribution*>;

/// Mean cost per call, in microseconds.
struct KernelCosts {
  double cf_grid_us = 0.0;  ///< Distribution::CfGrid, any family
  std::map<std::string, double> cf_grid_family_us;
  double invert_us = 0.0;  ///< InvertCfGridToDensity of a product grid
  double sum_cf_inversion_us = 0.0;  ///< CfInversionSum::SumOf per group
  double sum_cf_approx_us = 0.0;     ///< CfApproxSum::SumOf per group
  double prob_greater_us = 0.0;      ///< ProbGreaterThan per probe
  double sum_clt_us = 0.0;           ///< CltSum::SumOf per group
};

/// Replays every kernel on every group (three rounds; the cheapest round
/// per kernel is kept, so a descheduled round does not count). Each call is
/// a span under a "replay" span in `tracer`. `probe_threshold` is the
/// HAVING / subscription threshold the plan probes with; the probe runs on
/// the plan's own aggregate output type (CF-inversion histogram when
/// `probe_histogram`, else the CF-approx Gaussian).
KernelCosts ReplayKernels(const std::vector<Group>& groups,
                          size_t grid_points, double probe_threshold,
                          bool probe_histogram, Tracer* tracer);

/// Adds the universal kernel metrics (stats.cf_grid_us, stats.invert_us,
/// uncertain.*_us) and the per-family CfGrid extras.
void ReportKernelCosts(const KernelCosts& costs, RunReport* report);

/// Reports self.kernels_s, the replay's estimate of the stats/uncertain
/// kernel seconds one pass spends (per-call cost x the plan's calls), and
/// split.kernel_share, that estimate over the program's total operator
/// busy time: the stream versus stats/uncertain split.
void ReportKernelSplit(double kernel_s, double program_busy_s,
                       RunReport* report);

/// Mean stats::VarianceDistance between each emitted aggregate and the
/// reference: CfInversionSum at `reference_grid` points over the same
/// inputs (divided by the count for AVG rows).
struct ErrorSample {
  usp::stats::DistributionPtr emitted;
  Group inputs;
  bool is_avg = false;
  /// Owners of `inputs` when the program no longer holds them.
  std::vector<usp::stats::DistributionPtr> owned;
};
double ResultError(const std::vector<ErrorSample>& samples,
                   size_t reference_grid);

/// Up to `want` evenly spaced indices in [0, n), deterministic.
std::vector<size_t> EvenSample(size_t n, size_t want);

}  // namespace ucbench

#endif  // UCBENCH_REPLAY_H_
