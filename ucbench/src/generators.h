// Seeded input generators. Every workload's inputs are a pure function of
// --seed: the generator thread builds them before any timing starts, and
// the program only ever sees the records built here.
#ifndef UCBENCH_GENERATORS_H_
#define UCBENCH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "oracles.h"
#include "stats/distribution.h"
#include "stream/batch.h"

namespace ucbench {

/// Zipf(s) over keys [0, n): P(k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(usp::common::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One uncertain reading with a Gaussian value: the q1_keyed_sum and
/// alerts_open_loop record.
struct GaussRecord {
  int64_t ts_us = 0;
  int64_t key = 0;
  double mu = 0.0;
  double sd = 0.0;
};

/// q1_keyed_sum: `n` records, keys uniform over [0, num_keys), timestamps
/// advancing by `ts_step_us`, per-tuple Gaussian weights.
std::vector<GaussRecord> MakeKeyedGaussians(uint64_t seed, size_t n,
                                            int64_t num_keys,
                                            int64_t ts_step_us);

/// alerts_open_loop: an endless seeded stream of readings over Zipf-skewed
/// keys, most keys running cool and one in 32 hot, so threshold alerts are
/// the exception. Regenerable: two streams with one seed yield the same
/// records, which lets the generator build batches on schedule and the
/// oracle replay them without holding the whole input in memory.
class ZipfGaussianStream {
 public:
  ZipfGaussianStream(uint64_t seed, size_t num_keys, double zipf_s);
  /// Next record (ts_us is left 0; the schedule assigns event time).
  GaussRecord Next();

 private:
  usp::common::Rng rng_;
  std::vector<double> level_;
  ZipfSampler zipf_;
};

/// alerts_open_loop subscriptions in the multiplexing mix: mostly
/// exact-key (keys uniform over [0, num_keys)), a few key ranges and a few
/// all-groups watchers, each alerting on a round-number threshold and
/// confidence.
/// Ids are 1..n in order, as a fresh SubscriptionSet assigns them.
std::vector<AlertSub> MakeAlertSubs(uint64_t seed, size_t n, size_t num_keys);

/// A sensor model of the sliding_cf_inversion population.
struct SensorModel {
  enum Family : int { kGaussian = 0, kGmm = 1, kGamma = 2, kUniform = 3 };
  Family family = kGaussian;
  /// Gaussian: (mu, sd). GMM: (w, mu, sd) per component. Gamma: (shape,
  /// scale). Uniform: (lo, hi).
  std::vector<double> params;

  usp::stats::DistributionPtr Build() const;
};

/// Draws one model from the mixed population (Gaussian, 2-3 component GMM,
/// gamma, uniform).
SensorModel DrawSensorModel(usp::common::Rng* rng);

struct SensorRecord {
  int64_t ts_us = 0;
  int64_t key = 0;
  /// Index into the shared-model table, or -1 for a unique model.
  int32_t shared = -1;
  SensorModel model;  ///< the unique model (empty when shared >= 0)
};

struct SensorPopulation {
  std::vector<SensorModel> shared_models;
  std::vector<SensorRecord> records;
};

/// sliding_cf_inversion: `n` records over `num_keys` uniform keys; a
/// `shared_share` fraction reuses one of `num_shared` parameterisations.
SensorPopulation MakeSensorPopulation(uint64_t seed, size_t n,
                                      int64_t num_keys, int64_t ts_step_us,
                                      double shared_share, size_t num_shared);

/// Splits `tuples` into consecutive batches of `batch_size`.
std::vector<usp::stream::TupleBatch> Slice(
    std::vector<usp::stream::Tuple> tuples, size_t batch_size);

}  // namespace ucbench

#endif  // UCBENCH_GENERATORS_H_
