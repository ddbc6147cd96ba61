#include "rfid/transform_operator.h"

#include <algorithm>
#include <cmath>

#include "stats/fitting.h"
#include "stats/particle_set.h"

namespace usp {
namespace rfid {

const char* TupleDistPolicyName(TupleDistPolicy policy) {
  switch (policy) {
    case TupleDistPolicy::kGaussian:
      return "Gaussian";
    case TupleDistPolicy::kGmmAic:
      return "GMM(AIC)";
    case TupleDistPolicy::kGmmBic:
      return "GMM(BIC)";
    case TupleDistPolicy::kRawParticles:
      return "RawParticles";
  }
  return "?";
}

RfidTransformOperator::RfidTransformOperator(
    size_t num_objects, std::vector<Point2> shelf_positions,
    const SensingModel& sensing, const Options& options)
    : filter_(num_objects, std::move(shelf_positions), sensing,
              options.filter),
      opts_(options) {}

stream::SchemaPtr RfidTransformOperator::OutputSchema() {
  return std::make_shared<stream::Schema>(std::vector<stream::Field>{
      {"tag_id", stream::ValueKind::kInt},
      {"x", stream::ValueKind::kDistribution},
      {"y", stream::ValueKind::kDistribution},
  });
}

common::Result<stats::DistributionPtr> RfidTransformOperator::ConvertAxis(
    const std::vector<double>& values, const std::vector<double>& weights) {
  switch (opts_.policy) {
    case TupleDistPolicy::kGaussian: {
      payload_bytes_ += 2 * sizeof(double);
      return stats::DistributionPtr(std::make_shared<stats::Gaussian>(
          stats::FitGaussianKl(values, weights)));
    }
    case TupleDistPolicy::kGmmAic:
    case TupleDistPolicy::kGmmBic: {
      const auto criterion = opts_.policy == TupleDistPolicy::kGmmAic
                                 ? stats::ModelSelection::kAic
                                 : stats::ModelSelection::kBic;
      auto mix = stats::FitGmmAuto(values, weights, opts_.max_gmm_components,
                                   criterion);
      if (!mix.ok()) return mix.status();
      payload_bytes_ += 3 * sizeof(double) * mix.value().num_components();
      return stats::DistributionPtr(
          std::make_shared<stats::GaussianMixture>(mix.MoveValueUnsafe()));
    }
    case TupleDistPolicy::kRawParticles: {
      auto ps = stats::ParticleSet::Make(values, weights);
      if (!ps.ok()) return ps.status();
      payload_bytes_ += 2 * sizeof(double) * values.size();
      return stats::DistributionPtr(
          std::make_shared<stats::ParticleSet>(ps.MoveValueUnsafe()));
    }
  }
  return common::Status::Unimplemented("unknown TupleDistPolicy");
}

common::Status RfidTransformOperator::ProcessReading(const Reading& reading,
                                                     stream::Collector* out) {
  USP_RETURN_NOT_OK(filter_.ValidateReading(reading));
  // Tuple timestamps are int64 microseconds: |time_s| * 1e6 < 2^63.
  if (std::fabs(reading.time_s) >= 9.2e12) {
    return common::Status::InvalidArgument(
        "reading time does not fit a microsecond timestamp");
  }
  filter_.ProcessReading(reading);
  const int64_t ts_us = static_cast<int64_t>(reading.time_s * 1e6);
  // One tuple per distinct tag, in first-seen order: a reader that reports
  // a tag twice in one scan still detected the object once (the filter
  // counts it once), so a second tuple would double its weight downstream.
  const std::vector<uint32_t>& observed = reading.observed_objects;
  for (size_t i = 0; i < observed.size(); ++i) {
    const uint32_t id = observed[i];
    if (std::find(observed.begin(), observed.begin() + i, id) !=
        observed.begin() + i) {
      continue;
    }
    const ObjectBelief& b = filter_.belief(id);
    auto x_dist = ConvertAxis(b.xs, b.ws);
    if (!x_dist.ok()) return x_dist.status();
    auto y_dist = ConvertAxis(b.ys, b.ws);
    if (!y_dist.ok()) return y_dist.status();
    stream::Tuple tuple(
        ts_us, {stream::Value(static_cast<int64_t>(id)),
                stream::Value(x_dist.MoveValueUnsafe()),
                stream::Value(y_dist.MoveValueUnsafe())});
    tuple.InitBaseLineage();
    out->Emit(std::move(tuple));
  }
  return common::Status::OK();
}

common::Result<stream::TupleBatch> RfidTransformOperator::ProcessReadingBatch(
    const Reading& reading) {
  stream::TupleBatch batch;
  batch.Reserve(reading.observed_objects.size());
  stream::BatchCollector collector(&batch);
  USP_RETURN_NOT_OK(ProcessReading(reading, &collector));
  return batch;
}

}  // namespace rfid
}  // namespace usp
