#include "generators.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "stats/gamma_dist.h"
#include "stats/gaussian.h"
#include "stats/gaussian_mixture.h"
#include "stats/uniform.h"

namespace ucbench {

using usp::common::Rng;
using usp::stats::DistributionPtr;

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<GaussRecord> MakeKeyedGaussians(uint64_t seed, size_t n,
                                            int64_t num_keys,
                                            int64_t ts_step_us) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<GaussRecord> out(n);
  for (size_t i = 0; i < n; ++i) {
    GaussRecord& r = out[i];
    r.ts_us = static_cast<int64_t>(i) * ts_step_us;
    r.key = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(num_keys)));
    r.mu = rng.Uniform(1.0, 10.0);
    r.sd = rng.Uniform(0.1, 1.0);
  }
  return out;
}

ZipfGaussianStream::ZipfGaussianStream(uint64_t seed, size_t num_keys,
                                       double zipf_s)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 2),
      level_(num_keys),
      zipf_(num_keys, zipf_s) {
  // Key levels: every 32nd key (spread over the Zipf ranks) runs hot, at
  // levels evenly spaced over 40..60, so every seed raises about as many
  // alerts; the rest run cool (10..40).
  const double hot_keys = static_cast<double>((num_keys + 26) / 32);
  for (size_t k = 0; k < level_.size(); ++k) {
    level_[k] =
        k % 32 == 5
            ? 40.0 + 20.0 * (static_cast<double>(k / 32) + 0.5) / hot_keys
            : rng_.Uniform(10.0, 40.0);
  }
}

GaussRecord ZipfGaussianStream::Next() {
  GaussRecord r;
  r.key = static_cast<int64_t>(zipf_.Sample(&rng_));
  r.mu = level_[static_cast<size_t>(r.key)] + rng_.Uniform(-2.0, 2.0);
  r.sd = rng_.Uniform(0.5, 3.0);
  return r;
}

std::vector<AlertSub> MakeAlertSubs(uint64_t seed, size_t n,
                                    size_t num_keys) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  static constexpr double kConfidences[] = {0.5, 0.7, 0.8, 0.9, 0.95};
  // Scope kinds come in fixed proportions (97% / 2.7% / 0.3%), and within
  // each kind thresholds and confidences cycle through the round-number
  // grid, so every seed has the same number of subscriptions per
  // (kind, threshold, confidence); the seed picks keys, ranges and the
  // grid's starting point. Otherwise a few all-groups watchers more or
  // less on a low threshold swing the alert volume, and with it memory.
  const size_t rotation = rng.UniformInt(100);
  size_t per_kind[3] = {0, 0, 0};
  std::vector<AlertSub> subs(n);
  for (size_t i = 0; i < n; ++i) {
    AlertSub& s = subs[i];
    s.id = i + 1;
    const size_t slot = i % 1000;
    if (slot < 970) {
      s.kind = AlertSub::kKey;
      s.key = static_cast<int64_t>(rng.UniformInt(num_keys));
    } else if (slot < 997) {
      s.kind = AlertSub::kRange;
      s.lo = static_cast<int64_t>(rng.UniformInt(num_keys));
      s.hi = s.lo + static_cast<int64_t>(rng.UniformInt(8));
    } else {
      s.kind = AlertSub::kAll;
    }
    const size_t k = rotation + per_kind[s.kind]++;
    s.threshold = 45.0 + 5.0 * static_cast<double>(k % 20);
    s.confidence = kConfidences[(k / 20) % 5];
  }
  return subs;
}

DistributionPtr SensorModel::Build() const {
  switch (family) {
    case kGaussian:
      return std::make_shared<usp::stats::Gaussian>(params[0], params[1]);
    case kGmm: {
      std::vector<usp::stats::GaussianMixture::Component> comps;
      for (size_t i = 0; i + 2 < params.size(); i += 3) {
        comps.push_back({params[i], params[i + 1], params[i + 2]});
      }
      return std::make_shared<usp::stats::GaussianMixture>(
          usp::stats::GaussianMixture::Make(std::move(comps))
              .MoveValueUnsafe());
    }
    case kGamma:
      return std::make_shared<usp::stats::GammaDist>(params[0], params[1]);
    case kUniform:
      return std::make_shared<usp::stats::Uniform>(params[0], params[1]);
  }
  return nullptr;
}

SensorModel DrawSensorModel(Rng* rng) {
  SensorModel m;
  const double u = rng->Uniform();
  if (u < 0.4) {
    m.family = SensorModel::kGaussian;
    m.params = {rng->Uniform(2.0, 8.0), rng->Uniform(0.3, 1.5)};
  } else if (u < 0.7) {
    m.family = SensorModel::kGmm;
    const size_t k = 2 + rng->UniformInt(2);
    for (size_t c = 0; c < k; ++c) {
      m.params.push_back(0.2 + rng->Uniform());
      m.params.push_back(rng->Uniform(1.0, 9.0));
      m.params.push_back(0.3 + rng->Uniform());
    }
  } else if (u < 0.85) {
    m.family = SensorModel::kGamma;
    m.params = {rng->Uniform(1.5, 6.0), rng->Uniform(0.5, 1.5)};
  } else {
    m.family = SensorModel::kUniform;
    const double lo = rng->Uniform(0.0, 6.0);
    m.params = {lo, lo + rng->Uniform(1.0, 4.0)};
  }
  return m;
}

SensorPopulation MakeSensorPopulation(uint64_t seed, size_t n,
                                      int64_t num_keys, int64_t ts_step_us,
                                      double shared_share,
                                      size_t num_shared) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  SensorPopulation pop;
  for (size_t i = 0; i < num_shared; ++i) {
    pop.shared_models.push_back(DrawSensorModel(&rng));
  }
  pop.records.resize(n);
  for (size_t i = 0; i < n; ++i) {
    SensorRecord& r = pop.records[i];
    r.ts_us = static_cast<int64_t>(i) * ts_step_us;
    r.key = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(num_keys)));
    if (num_shared > 0 && rng.Uniform() < shared_share) {
      r.shared = static_cast<int32_t>(rng.UniformInt(num_shared));
    } else {
      r.model = DrawSensorModel(&rng);
    }
  }
  return pop;
}

std::vector<usp::stream::TupleBatch> Slice(
    std::vector<usp::stream::Tuple> tuples, size_t batch_size) {
  std::vector<usp::stream::TupleBatch> out;
  for (size_t i = 0; i < tuples.size(); i += batch_size) {
    usp::stream::TupleBatch batch;
    const size_t end = std::min(tuples.size(), i + batch_size);
    batch.Reserve(end - i);
    for (size_t j = i; j < end; ++j) batch.Append(std::move(tuples[j]));
    out.push_back(std::move(batch));
  }
  return out;
}

}  // namespace ucbench
