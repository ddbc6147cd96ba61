#include "replay.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>

#include "stats/characteristic_function.h"
#include "stats/gamma_dist.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/metrics.h"
#include "stats/uniform.h"
#include "stream/value.h"
#include "uncertain/aggregates.h"
#include "uncertain/sum_strategies.h"

namespace ucbench {

using usp::stats::Distribution;
using usp::stats::DistributionPtr;

namespace {

const char* FamilyOf(const Distribution* d) {
  if (dynamic_cast<const usp::stats::Gaussian*>(d)) return "gaussian";
  if (dynamic_cast<const usp::stats::GaussianMixture*>(d)) return "gmm";
  if (dynamic_cast<const usp::stats::GammaDist*>(d)) return "gamma";
  if (dynamic_cast<const usp::stats::Uniform*>(d)) return "uniform";
  return "other";
}

/// Sum moments of a group, for the inversion grid's range.
void Moments(const Group& g, double* mean, double* sd) {
  double m = 0.0, v = 0.0;
  for (const Distribution* d : g) {
    m += d->Mean();
    v += d->Variance();
  }
  *mean = m;
  *sd = std::sqrt(std::max(v, 1e-12));
}

struct Timer {
  explicit Timer(double* acc) : acc_(acc), start_(SteadyNowNs()) {}
  ~Timer() { *acc_ += static_cast<double>(SteadyNowNs() - start_) * 1e-3; }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  double* acc_;
  int64_t start_;
};

}  // namespace

KernelCosts ReplayKernels(const std::vector<Group>& groups,
                          size_t grid_points, double probe_threshold,
                          bool probe_histogram, Tracer* tracer) {
  constexpr int kRounds = 3;
  const double inf = std::numeric_limits<double>::infinity();
  KernelCosts best;
  best.cf_grid_us = best.invert_us = best.sum_cf_inversion_us =
      best.sum_cf_approx_us = best.prob_greater_us = best.sum_clt_us = inf;
  std::map<std::string, double> best_family;

  ScopedSpan replay_span(tracer, "replay", -1);
  usp::stats::CfInversionWorkspace ws;
  usp::uncertain::CfInversionSum inversion(grid_points);
  inversion.set_workspace(&ws);
  usp::uncertain::CfApproxSum approx;
  usp::uncertain::CltSum clt;
  std::vector<double> t(grid_points);
  std::vector<std::complex<double>> cf(grid_points), phi(grid_points);
  std::vector<std::complex<double>> scratch;

  for (int round = 0; round < kRounds; ++round) {
    double cf_total = 0.0, invert = 0.0, sum_inv = 0.0, sum_approx = 0.0,
           probe = 0.0, sum_clt = 0.0;
    size_t cf_calls = 0, probes = 0;
    std::map<std::string, double> fam_total;
    std::map<std::string, size_t> fam_calls;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const Group& g = groups[gi];
      if (g.empty()) continue;
      const auto request = static_cast<int64_t>(gi);
      double mean = 0.0, sd = 1.0;
      Moments(g, &mean, &sd);
      const double lo = mean - 8.0 * sd, hi = mean + 8.0 * sd;
      const double dt = 2.0 * M_PI / (hi - lo);
      for (size_t k = 0; k < grid_points; ++k) {
        t[k] = (static_cast<double>(k) - static_cast<double>(grid_points / 2)) *
               dt;
      }
      // stats: one CfGrid per input distribution.
      for (const Distribution* d : g) {
        double us = 0.0;
        {
          ScopedSpan s(tracer, "stats.cf_grid", request);
          Timer timer(&us);
          d->CfGrid(t.data(), grid_points, cf.data());
        }
        cf_total += us;
        ++cf_calls;
        const char* fam = FamilyOf(d);
        fam_total[fam] += us;
        ++fam_calls[fam];
      }
      // stats: inversion of the group's product grid.
      usp::stats::ProductCfGrid(g, t.data(), grid_points, phi.data(),
                                &scratch);
      {
        ScopedSpan s(tracer, "stats.invert", request);
        Timer timer(&invert);
        (void)usp::stats::InvertCfGridToDensity(phi.data(), grid_points, lo,
                                                hi, grid_points, &ws);
      }
      // uncertain: the SUM strategies on the whole group.
      usp::common::Result<DistributionPtr> inv_sum = DistributionPtr();
      {
        ScopedSpan s(tracer, "uncertain.sum_cf_inversion", request);
        Timer timer(&sum_inv);
        inv_sum = inversion.SumOf(g);
      }
      usp::common::Result<DistributionPtr> approx_sum = DistributionPtr();
      {
        ScopedSpan s(tracer, "uncertain.sum_cf_approx", request);
        Timer timer(&sum_approx);
        approx_sum = approx.SumOf(g);
      }
      {
        ScopedSpan s(tracer, "uncertain.sum_clt", request);
        Timer timer(&sum_clt);
        (void)clt.SumOf(g);
      }
      const auto& probed = probe_histogram ? inv_sum : approx_sum;
      if (probed.ok()) {
        const usp::stream::Value v(probed.value());
        ScopedSpan s(tracer, "uncertain.prob_greater", request);
        Timer timer(&probe);
        volatile double p = usp::uncertain::ProbGreaterThan(v, probe_threshold);
        (void)p;
        ++probes;
      }
    }
    const double n = static_cast<double>(groups.size());
    best.cf_grid_us = std::min(best.cf_grid_us,
                               cf_total / static_cast<double>(cf_calls));
    best.invert_us = std::min(best.invert_us, invert / n);
    best.sum_cf_inversion_us = std::min(best.sum_cf_inversion_us, sum_inv / n);
    best.sum_cf_approx_us = std::min(best.sum_cf_approx_us, sum_approx / n);
    best.sum_clt_us = std::min(best.sum_clt_us, sum_clt / n);
    best.prob_greater_us = std::min(
        best.prob_greater_us, probe / static_cast<double>(std::max<size_t>(
                                          probes, 1)));
    for (const auto& [fam, total] : fam_total) {
      const double per = total / static_cast<double>(fam_calls[fam]);
      auto it = best_family.find(fam);
      if (it == best_family.end() || per < it->second) best_family[fam] = per;
    }
  }
  best.cf_grid_family_us = best_family;
  return best;
}

void ReportKernelCosts(const KernelCosts& c, RunReport* report) {
  report->Set("stats.cf_grid_us", c.cf_grid_us, "us");
  report->Set("stats.invert_us", c.invert_us, "us");
  report->Set("uncertain.sum_cf_inversion_us", c.sum_cf_inversion_us, "us");
  report->Set("uncertain.sum_cf_approx_us", c.sum_cf_approx_us, "us");
  report->Set("uncertain.prob_greater_us", c.prob_greater_us, "us");
  report->Extra("uncertain.sum_clt_us", c.sum_clt_us, "us");
  for (const auto& [fam, us] : c.cf_grid_family_us) {
    report->Extra("stats.cf_grid_us." + fam, us, "us");
  }
}

void ReportKernelSplit(double kernel_s, double program_busy_s,
                       RunReport* report) {
  report->Set("self.kernels_s", kernel_s, "s");
  report->Set("split.kernel_share",
              program_busy_s > 0.0 ? kernel_s / program_busy_s : 0.0,
              "fraction");
}

double ResultError(const std::vector<ErrorSample>& samples,
                   size_t reference_grid) {
  usp::uncertain::CfInversionSum reference(reference_grid);
  double total = 0.0;
  size_t counted = 0;
  for (const ErrorSample& s : samples) {
    if (!s.emitted || s.inputs.empty()) continue;
    auto ref =
        s.is_avg ? reference.MeanOf(s.inputs) : reference.SumOf(s.inputs);
    if (!ref.ok()) continue;
    total += usp::stats::VarianceDistance(*s.emitted, *ref.value());
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

std::vector<size_t> EvenSample(size_t n, size_t want) {
  std::vector<size_t> out;
  if (n == 0 || want == 0) return out;
  const size_t k = std::min(n, want);
  for (size_t i = 0; i < k; ++i) out.push_back(i * n / k);
  return out;
}

}  // namespace ucbench
