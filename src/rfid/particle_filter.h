// Particle-filter inference of object locations from mobile RFID readings
// (§4.1). Two implementations:
//
//  - JointParticleFilter: the textbook baseline — each particle is a joint
//    assignment of ALL object locations. Cost per reading is
//    O(particles x objects) and the joint space degenerates quickly; this
//    is the "0.1 reading per second for 20 objects" starting point.
//
//  - FactoredParticleFilter: the paper's optimized design. *Factorization*
//    gives each object its own independent particle set (linear, not
//    exponential, in objects); *spatial indexing* restricts each reading's
//    update to objects near the reader; *compression* shrinks the particle
//    set of objects whose posterior has stabilized in a small region.
//    Each optimization can be toggled for the ablation bench.
//
// Random stream of the factored filter: one common::Rng seeded from
// FilterOptions::seed. Each candidate cloud of n particles advances it in
// this fixed order, so a seed fixes every belief on every dispatch tier:
//   1. motion (skipped when no time has passed since the cloud's last
//      update): n jump uniforms (only when the jump probability is > 0),
//      n uniforms U turned into u1 = 1 - U, n uniforms u2; then, in
//      particle order, one UniformInt shelf pick per particle whose jump
//      uniform fell below the jump probability. The Box-Muller pairs
//      (z0, z1) of (u1, u2) come from simd::Dispatch::normal_pairs: a
//      walking particle moves by sigma * (z0, z1), a jumping one lands at
//      shelf + (z0, z1);
//   2. measurement: no draws, except a collapsed detected cloud re-seeded
//      around the reader (one Gaussian and one Uniform per particle);
//   3. systematic resampling, when the ESS is low: one Uniform;
//   4. re-expansion of a compressed cloud: two Gaussians per particle.

#ifndef USP_RFID_PARTICLE_FILTER_H_
#define USP_RFID_PARTICLE_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "rfid/model.h"

namespace usp {
namespace rfid {

/// Tuning knobs shared by both filters.
struct FilterOptions {
  size_t particles_per_object = 100;
  bool use_spatial_index = true;    ///< factored filter only
  bool use_compression = true;      ///< factored filter only
  bool lazy_motion = true;          ///< factored filter only: update motion
                                    ///< only for candidate objects
  size_t compressed_particles = 8;
  double compression_stddev_ft = 0.8;  ///< compress below this spread
  double expansion_stddev_ft = 2.5;    ///< re-expand above this spread
  double random_walk_sigma = 0.15;     ///< ft per sqrt(second)
  double shelf_jump_rate = 0.004;      ///< per-second hazard of a shelf hop
  double resample_ess_fraction = 0.5;
  uint64_t seed = 99;
};

/// Per-object weighted particle cloud over (x, y).
struct ObjectBelief {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> ws;  ///< normalized
  double last_update_s = 0.0;
  double last_seen_s = -1.0;  ///< time of the most recent detection
  uint64_t detection_count = 0;
  bool ever_detected = false;
  bool compressed = false;

  size_t size() const { return xs.size(); }
  Point2 Mean() const;
  /// Max of the x and y posterior standard deviations.
  double Spread() const { return Spread(Mean()); }
  /// Spread() about an already computed Mean().
  double Spread(const Point2& mean) const;
  double EffectiveSampleSize() const;
};

/// \brief Factored per-object particle filter with spatial indexing and
/// particle compression.
class FactoredParticleFilter {
 public:
  FactoredParticleFilter(size_t num_objects,
                         std::vector<Point2> shelf_positions,
                         const SensingModel& sensing,
                         const FilterOptions& options);

  /// InvalidArgument when `reading` names a tag id >= num_objects() or
  /// carries a non-finite time, reader position or heading: readings the
  /// filter cannot assimilate without indexing out of bounds or turning
  /// every candidate belief into NaN.
  common::Status ValidateReading(const Reading& reading) const;

  /// Assimilate one reading. Returns the number of object beliefs updated
  /// (the candidate-set size — the quantity spatial indexing shrinks).
  /// Precondition: ValidateReading(reading) is OK.
  size_t ProcessReading(const Reading& reading);

  size_t num_objects() const { return beliefs_.size(); }
  const ObjectBelief& belief(uint32_t id) const { return beliefs_[id]; }
  Point2 EstimateMean(uint32_t id) const { return beliefs_[id].Mean(); }

  /// Mean Euclidean error of the location estimates against ground truth,
  /// over objects detected at least once and last seen at or after
  /// `seen_since_s` (Fig 3a metric; the default includes every object
  /// ever detected).
  double MeanErrorAgainst(const std::vector<Point2>& truth,
                          double seen_since_s = -1.0,
                          uint64_t min_detections = 1) const;

  /// Total particles currently allocated (compression's effect).
  size_t TotalParticles() const;

 private:
  void InitBelief(uint32_t id);
  void MotionUpdate(ObjectBelief* b, double now_s);
  void MeasurementUpdate(ObjectBelief* b, const SensingPose& pose,
                         bool detected);
  void ResampleIfNeeded(ObjectBelief* b);
  /// Returns true when it replaced the cloud (so `mean` is stale).
  bool CompressOrExpand(ObjectBelief* b, const Point2& mean);
  void RecoverAroundReader(ObjectBelief* b, const Point2& reader_pos);
  void ReindexObject(uint32_t id, const Point2& old_mean,
                     const Point2& new_mean);
  std::vector<uint32_t> CandidateObjects(const Reading& reading) const;
  size_t CellOf(const Point2& p) const;

  // Per-cloud scratch, sized once to the largest cloud a belief can hold
  // and reused by every candidate of every reading.
  struct CloudScratch {
    std::vector<double> jump_u, u1, u2, z0, z1;  // MotionUpdate draws
    std::vector<double> xs, ys;  // resample / expand gather
    std::vector<size_t> order;   // compression ranking
  };

  std::vector<Point2> shelves_;
  SensingModel sensing_;
  FilterOptions opts_;
  common::Rng rng_;
  std::vector<ObjectBelief> beliefs_;
  std::vector<Point2> belief_means_;
  // Grid index over belief means.
  double cell_ft_;
  size_t grid_w_, grid_h_;
  double area_w_, area_h_;
  std::vector<std::vector<uint32_t>> grid_;
  CloudScratch scratch_;
};

/// \brief Joint-state baseline particle filter.
class JointParticleFilter {
 public:
  JointParticleFilter(size_t num_objects, std::vector<Point2> shelf_positions,
                      const SensingModel& sensing,
                      const FilterOptions& options);

  /// Assimilate one reading. InvalidArgument, with no state changed, when
  /// the reading fails FactoredParticleFilter::ValidateReading's checks
  /// (a tag id >= num_objects, or a non-finite time, reader position or
  /// heading).
  common::Status ProcessReading(const Reading& reading);

  Point2 EstimateMean(uint32_t id) const;
  double MeanErrorAgainst(const std::vector<Point2>& truth) const;

 private:
  struct JointParticle {
    std::vector<Point2> positions;  // one per object
  };

  std::vector<Point2> shelves_;
  SensingModel sensing_;
  FilterOptions opts_;
  common::Rng rng_;
  std::vector<JointParticle> particles_;
  std::vector<double> weights_;
  double last_update_s_ = 0.0;
  std::vector<bool> ever_detected_;
};

}  // namespace rfid
}  // namespace usp

#endif  // USP_RFID_PARTICLE_FILTER_H_
