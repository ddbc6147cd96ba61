#include "radar/pulse_simulator.h"

#include <cassert>
#include <cmath>

namespace usp {
namespace radar {

double Vortex::TangentialSpeed(double r_m) const {
  if (r_m <= 0.0) return 0.0;
  if (r_m <= core_radius_m) {
    // Solid-body rotation inside the core.
    return max_tangential_mps * r_m / core_radius_m;
  }
  // Potential-vortex decay outside.
  return max_tangential_mps * core_radius_m / r_m;
}

double WindField::RadialVelocity(const RadarSite& site, double x_m,
                                 double y_m) const {
  double u = background_u_mps;
  double v = background_v_mps;
  for (const Vortex& vx : vortices) {
    const double dx = x_m - vx.x_m;
    const double dy = y_m - vx.y_m;
    const double r = std::sqrt(dx * dx + dy * dy);
    if (r < 1e-6) continue;
    const double vt = vx.TangentialSpeed(r);
    // Counter-clockwise rotation: tangential direction (-dy, dx)/r.
    u += vt * (-dy / r);
    v += vt * (dx / r);
  }
  const double lx = x_m - site.x_m;
  const double ly = y_m - site.y_m;
  const double range = std::sqrt(lx * lx + ly * ly);
  if (range < 1e-6) return 0.0;
  return (u * lx + v * ly) / range;
}

double WindField::ReflectivityDb(double x_m, double y_m) const {
  // Broad storm background with Gaussian bumps around the vortices.
  double z = 20.0;
  for (const Vortex& vx : vortices) {
    const double dx = x_m - vx.x_m;
    const double dy = y_m - vx.y_m;
    const double r2 = dx * dx + dy * dy;
    const double s = 4.0 * vx.core_radius_m;
    z += 30.0 * std::exp(-r2 / (2.0 * s * s));
  }
  return z;
}

PulseSimulator::PulseSimulator(const PulseSimConfig& config,
                               const WindField& wind)
    : config_(config), wind_(wind), rng_(config.seed) {
  assert(config_.num_gates > 0);
  azimuth_ = config_.sector_start_rad;
  phase_.resize(config_.num_gates);
  for (double& p : phase_) p = rng_.Uniform(0.0, 2.0 * M_PI);
  // MA coefficients: geometric taper 0.7^j, j = 1..q.
  ma_coeffs_.resize(config_.noise_ma_order);
  double c = 0.7;
  for (double& coef : ma_coeffs_) {
    coef = c;
    c *= 0.7;
  }
  const size_t hist = config_.noise_ma_order + 1;
  noise_hist_i_.assign(config_.num_gates, std::vector<double>(hist, 0.0));
  noise_hist_q_.assign(config_.num_gates, std::vector<double>(hist, 0.0));
}

double PulseSimulator::TrueRadialVelocity(double azimuth_rad,
                                          size_t gate) const {
  const double range =
      (static_cast<double>(gate) + 0.5) * config_.gate_spacing_m;
  const double x = config_.site.x_m + range * std::cos(azimuth_rad);
  const double y = config_.site.y_m + range * std::sin(azimuth_rad);
  return wind_.RadialVelocity(config_.site, x, y);
}

double PulseSimulator::RawBytesPerSecond() const {
  return kPulsesPerSecond * static_cast<double>(config_.num_gates) *
         sizeof(GateSample);
}

Pulse PulseSimulator::NextPulse() {
  const double dt = 1.0 / kPulsesPerSecond;
  Pulse pulse;
  pulse.time_s = now_s_;
  pulse.azimuth_rad = azimuth_;
  pulse.gates.resize(config_.num_gates);

  const size_t hist = config_.noise_ma_order + 1;
  const size_t pos = hist_pos_ % hist;
  const double cos_az = std::cos(azimuth_);
  const double sin_az = std::sin(azimuth_);
  for (size_t g = 0; g < config_.num_gates; ++g) {
    const double range =
        (static_cast<double>(g) + 0.5) * config_.gate_spacing_m;
    const double x = config_.site.x_m + range * cos_az;
    const double y = config_.site.y_m + range * sin_az;
    const double v_r = wind_.RadialVelocity(config_.site, x, y);
    const double z_db = wind_.ReflectivityDb(x, y);
    // Signal amplitude from reflectivity (normalized so 20 dBZ -> 1.0).
    const double amp = std::pow(10.0, (z_db - 20.0) / 40.0);
    // Pulse-pair phase advance: d_phi = 4 pi T v / lambda.
    phase_[g] += 4.0 * M_PI * dt * v_r / kWavelengthM;
    if (phase_[g] > 2.0 * M_PI) phase_[g] -= 2.0 * M_PI;
    if (phase_[g] < 0.0) phase_[g] += 2.0 * M_PI;

    // MA(q)-correlated complex noise.
    const double ei = rng_.Gaussian(0.0, config_.noise_stddev);
    const double eq = rng_.Gaussian(0.0, config_.noise_stddev);
    auto& hi = noise_hist_i_[g];
    auto& hq = noise_hist_q_[g];
    double ni = ei;
    double nq = eq;
    for (size_t j = 0; j < ma_coeffs_.size(); ++j) {
      const size_t back = (pos + hist - 1 - j) % hist;
      ni += ma_coeffs_[j] * hi[back];
      nq += ma_coeffs_[j] * hq[back];
    }
    hi[pos] = ei;
    hq[pos] = eq;

    GateSample& s = pulse.gates[g];
    s.i = static_cast<float>(amp * std::cos(phase_[g]) + ni);
    s.q = static_cast<float>(amp * std::sin(phase_[g]) + nq);
    s.power = static_cast<float>(s.i * s.i + s.q * s.q);
    const double noise_pow = 2.0 * config_.noise_stddev *
                             config_.noise_stddev *
                             (1.0 + 0.49 + 0.24 + 0.12);  // rough MA gain
    s.quality = static_cast<float>(amp * amp / (amp * amp + noise_pow));
  }
  ++hist_pos_;

  // Advance time and antenna.
  now_s_ += dt;
  const double step = config_.rotation_rate_rad_per_s * dt;
  if (sweeping_up_) {
    azimuth_ += step;
    if (azimuth_ >= config_.sector_end_rad) {
      azimuth_ = config_.sector_end_rad;
      sweeping_up_ = false;
    }
  } else {
    azimuth_ -= step;
    if (azimuth_ <= config_.sector_start_rad) {
      azimuth_ = config_.sector_start_rad;
      sweeping_up_ = true;
    }
  }
  return pulse;
}

}  // namespace radar
}  // namespace usp
