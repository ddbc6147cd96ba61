// The RFID data capture and transformation (T) operator (§3, §4): consumes
// raw Readings, runs particle-filter inference, and emits an object
// location tuple stream where each coordinate carries a pdf produced by
// KL-minimizing conversion of the particles (§4.3) — Gaussian by default,
// or a mixture chosen by AIC/BIC when the posterior is multi-modal (e.g.
// an object that may have just moved shelves).

#ifndef USP_RFID_TRANSFORM_OPERATOR_H_
#define USP_RFID_TRANSFORM_OPERATOR_H_

#include <memory>

#include "rfid/particle_filter.h"
#include "stream/batch.h"
#include "stream/operator.h"
#include "stream/schema.h"

namespace usp {
namespace rfid {

/// How particle clouds are converted into tuple-level distributions.
enum class TupleDistPolicy {
  kGaussian,      ///< closed-form KL-optimal Gaussian (two scans)
  kGmmAic,        ///< EM mixture, component count by AIC
  kGmmBic,        ///< EM mixture, component count by BIC
  kRawParticles,  ///< ship the weighted samples themselves (§4.3's
                  ///< "obvious problem" baseline: 10-100x stream volume)
};

const char* TupleDistPolicyName(TupleDistPolicy policy);

/// \brief Ingress operator: Readings in, uncertain location tuples out.
///
/// Output schema: (tag_id: int, x: distribution, y: distribution). One
/// tuple per object detected in the reading; timestamp is the reading time
/// in microseconds. Tuples are base tuples (lineage = own id).
class RfidTransformOperator {
 public:
  struct Options {
    FilterOptions filter;
    TupleDistPolicy policy = TupleDistPolicy::kGaussian;
    size_t max_gmm_components = 3;
  };

  RfidTransformOperator(size_t num_objects,
                        std::vector<Point2> shelf_positions,
                        const SensingModel& sensing, const Options& options);

  /// Assimilate a reading and emit one location tuple per distinct
  /// detected tag, in first-seen order (a tag reported twice in one scan
  /// yields one tuple).
  /// A malformed reading (see FactoredParticleFilter::ValidateReading, or
  /// a time beyond the int64 microsecond range) is InvalidArgument and
  /// leaves the filter untouched.
  common::Status ProcessReading(const Reading& reading,
                                stream::Collector* out);

  /// Batch-native variant: the location tuples of one reading as a
  /// TupleBatch, ready for DagExecutor / ShardedExecutor ingest.
  common::Result<stream::TupleBatch> ProcessReadingBatch(
      const Reading& reading);

  const FactoredParticleFilter& filter() const { return filter_; }
  static stream::SchemaPtr OutputSchema();

  /// Approximate bytes of distribution payload emitted so far; the §4.3
  /// space argument (raw particles vs parametric) is measured from this.
  size_t payload_bytes_emitted() const { return payload_bytes_; }

 private:
  common::Result<stats::DistributionPtr> ConvertAxis(
      const std::vector<double>& values, const std::vector<double>& weights);

  FactoredParticleFilter filter_;
  Options opts_;
  size_t payload_bytes_ = 0;
};

}  // namespace rfid
}  // namespace usp

#endif  // USP_RFID_TRANSFORM_OPERATOR_H_
