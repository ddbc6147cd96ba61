#include "radar/experiment.h"

#include <cmath>

#include "common/stopwatch.h"

namespace usp {
namespace radar {

WindField MakeTornadicWindField(const Table1Config& config) {
  WindField wind;
  wind.background_u_mps = 4.0;
  wind.background_v_mps = 2.0;
  // Vortices staggered through the sector (0..90 deg) at 12-30 km range so
  // each sweep crosses all of them.
  for (size_t i = 0; i < config.num_vortices; ++i) {
    const double frac =
        (static_cast<double>(i) + 0.5) / static_cast<double>(
                                             config.num_vortices);
    const double az = frac * M_PI / 2.0;
    const double range = 12000.0 + 6000.0 * static_cast<double>(i);
    Vortex v;
    v.x_m = range * std::cos(az);
    v.y_m = range * std::sin(az);
    v.core_radius_m = 450.0;
    v.max_tangential_mps = 38.0;
    wind.vortices.push_back(v);
  }
  return wind;
}

namespace {

// One row of Table 1 from the moment beams of one averaging size: splits
// the beams into sector scans at sweep turnarounds and scores the
// detector on every scan.
common::Result<Table1Row> ScoreBeams(const Table1Config& config,
                                     const WindField& wind,
                                     const RadarSite& site,
                                     size_t averaging_size,
                                     const std::vector<MomentBeam>& beams) {
  if (beams.empty()) {
    return common::Status::FailedPrecondition(
        "no moment beams produced; averaging size exceeds the trace");
  }

  // Split into scans at azimuth direction reversals.
  std::vector<std::vector<MomentBeam>> scans;
  scans.emplace_back();
  int direction = 0;
  for (size_t i = 0; i < beams.size(); ++i) {
    if (i >= 1) {
      const double d = beams[i].azimuth_rad - beams[i - 1].azimuth_rad;
      const int nd = d > 0.0 ? 1 : (d < 0.0 ? -1 : direction);
      if (direction != 0 && nd != 0 && nd != direction) {
        scans.emplace_back();
      }
      if (nd != 0) direction = nd;
    }
    scans.back().push_back(beams[i]);
  }

  // Ground-truth vortex ground positions for scoring.
  std::vector<std::pair<double, double>> truth;
  for (const Vortex& v : wind.vortices) truth.emplace_back(v.x_m, v.y_m);

  TornadoDetector detector(config.detector);
  Table1Row row;
  row.averaging_size = averaging_size;
  row.moment_data_mb =
      static_cast<double>(beams.size() *
                          MomentEstimator::BeamBytes(config.num_gates)) /
      (1024.0 * 1024.0);

  common::Stopwatch sw;
  double reported = 0.0, false_neg = 0.0, prob_sum = 0.0;
  size_t prob_count = 0;
  size_t scored_scans = 0;
  for (const auto& scan : scans) {
    if (scan.size() < 2) continue;
    const auto detections = detector.DetectInScan(scan);
    const DetectionScore score =
        ScoreDetections(detections, site, truth, /*tolerance_m=*/2500.0);
    reported += static_cast<double>(detections.size());
    false_neg += static_cast<double>(score.false_negatives);
    for (const auto& d : detections) {
      prob_sum += d.probability;
      ++prob_count;
    }
    ++scored_scans;
  }
  row.detection_seconds = sw.ElapsedSeconds();
  if (scored_scans > 0) {
    row.avg_reported_tornados = reported / static_cast<double>(scored_scans);
    row.avg_false_negatives = false_neg / static_cast<double>(scored_scans);
  } else {
    // No usable scan at this averaging size: everything is missed.
    row.avg_reported_tornados = 0.0;
    row.avg_false_negatives = static_cast<double>(config.num_vortices);
  }
  row.avg_detection_probability =
      prob_count > 0 ? prob_sum / static_cast<double>(prob_count) : 0.0;
  return row;
}

}  // namespace

common::Result<Table1Row> RunTable1Row(const Table1Config& config,
                                       size_t averaging_size) {
  auto rows = RunTable1Sweep(config, {averaging_size});
  if (!rows.ok()) return rows.status();
  return rows.value()[0];
}

common::Result<std::vector<Table1Row>> RunTable1Sweep(
    const Table1Config& config, const std::vector<size_t>& averaging_sizes) {
  for (size_t n : averaging_sizes) {
    if (n < 2) {
      return common::Status::InvalidArgument(
          "averaging size must be at least 2 pulses");
    }
  }
  const WindField wind = MakeTornadicWindField(config);
  PulseSimConfig sim_config;
  sim_config.num_gates = config.num_gates;
  sim_config.noise_stddev = config.noise_stddev;
  sim_config.seed = config.seed;
  PulseSimulator sim(sim_config, wind);

  // One seeded pulse stream feeds every averaging size as it is
  // generated: simulation dominates a row, and buffering the trace would
  // hold every pulse of every gate.
  std::vector<MomentEstimator> estimators;
  estimators.reserve(averaging_sizes.size());
  for (size_t n : averaging_sizes) {
    MomentEstimator::Options mopts;
    mopts.averaging_size = n;
    estimators.emplace_back(mopts);
  }
  const size_t total_pulses =
      static_cast<size_t>(config.duration_s * kPulsesPerSecond);
  for (size_t p = 0; p < total_pulses; ++p) {
    const Pulse pulse = sim.NextPulse();
    for (MomentEstimator& estimator : estimators) {
      USP_RETURN_NOT_OK(estimator.AddPulse(pulse));
    }
  }

  std::vector<Table1Row> rows;
  rows.reserve(averaging_sizes.size());
  for (size_t i = 0; i < averaging_sizes.size(); ++i) {
    auto row = ScoreBeams(config, wind, sim_config.site, averaging_sizes[i],
                          estimators[i].beams());
    if (!row.ok()) return row.status();
    rows.push_back(row.value());
  }
  return rows;
}

}  // namespace radar
}  // namespace usp
