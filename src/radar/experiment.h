// The Table 1 experiment driver: replays a fixed span of synthetic
// tornadic pulse data through moment generation at a configurable
// averaging size, runs tornado detection per sector scan, and reports the
// paper's four columns (moment data size, detection running time, number
// of reported tornados, false negatives). Shared by the bench binary and
// the radar example.

#ifndef USP_RADAR_EXPERIMENT_H_
#define USP_RADAR_EXPERIMENT_H_

#include "common/status.h"
#include "radar/moments.h"
#include "radar/pulse_simulator.h"
#include "radar/tornado_detector.h"

namespace usp {
namespace radar {

/// One row of Table 1.
struct Table1Row {
  size_t averaging_size = 0;
  double moment_data_mb = 0.0;
  double detection_seconds = 0.0;
  double avg_reported_tornados = 0.0;
  double avg_false_negatives = 0.0;
  double avg_detection_probability = 0.0;  ///< our uncertainty extension
};

/// Experiment setup mirroring §2.2's trace: 38 seconds of raw data, 4
/// sector scans, tornadic wind field.
struct Table1Config {
  double duration_s = 38.0;
  size_t num_gates = kDefaultNumGates;
  size_t num_vortices = 4;
  double noise_stddev = 0.35;
  uint64_t seed = 509;  // May 9 homage
  TornadoDetector::Options detector;
};

/// Run the experiment at one averaging size.
common::Result<Table1Row> RunTable1Row(const Table1Config& config,
                                       size_t averaging_size);

/// Run the full sweep (the paper's {40, 60, 80, 100, 200, 500, 1000}).
/// One seeded pulse stream is simulated once and fed to every averaging
/// size as it is generated, so each row equals RunTable1Row at that size
/// (detection_seconds aside). Every size must be at least 2.
common::Result<std::vector<Table1Row>> RunTable1Sweep(
    const Table1Config& config, const std::vector<size_t>& averaging_sizes);

/// Build the standard tornadic wind field used by the experiment: vortices
/// placed mid-sector at staggered ranges.
WindField MakeTornadicWindField(const Table1Config& config);

}  // namespace radar
}  // namespace usp

#endif  // USP_RADAR_EXPERIMENT_H_
