// Ablation of the §4.1 particle-filter optimizations. The paper: "our
// system improves particle filtering from processing 0.1 reading per
// second given 20 objects to over 1000 readings per second in most cases
// given 20,000 objects, e.g., achieving 7 orders of magnitude improvement
// in scalability."
//
// Rows:
//   joint/20            the joint-state baseline on 20 objects
//   factored/20         factorization only, same 20 objects
//   factored/20000      factorization, no index, no compression
//   +index/20000        factorization + spatial index
//   +index+compr/20000  all three optimizations (the shipping config)
//
// The reproduction claim is the relative ladder: each optimization adds
// throughput, and the full configuration at 20,000 objects beats the joint
// baseline at 20 objects by orders of magnitude.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "rfid/model.h"
#include "rfid/particle_filter.h"

namespace {

using usp::rfid::FactoredParticleFilter;
using usp::rfid::FilterOptions;
using usp::rfid::JointParticleFilter;
using usp::rfid::WarehouseConfig;
using usp::rfid::WarehouseSimulator;

WarehouseConfig ConfigForObjects(size_t objects, double side) {
  WarehouseConfig c;
  c.width_ft = side;
  c.height_ft = side;
  c.shelf_rows = static_cast<size_t>(side / 10.0);
  c.shelf_cols = static_cast<size_t>(side / 10.0);
  c.num_objects = objects;
  c.seed = 2020;
  return c;
}

double MeasureJoint(size_t objects, int events) {
  const WarehouseConfig config = ConfigForObjects(objects, 100.0);
  WarehouseSimulator sim(config);
  FilterOptions opts;
  // The joint state space is (R^2)^objects; even for 20 objects a usable
  // joint filter needs orders of magnitude more particles than a factored
  // one needs per object. 5000 is still charitable.
  opts.particles_per_object = 5000;
  JointParticleFilter filter(objects, sim.shelf_positions(), config.sensing,
                             opts);
  usp::common::Stopwatch sw;
  for (int i = 0; i < events; ++i) {
    const usp::common::Status st = filter.ProcessReading(sim.Step());
    if (!st.ok()) {
      fprintf(stderr, "joint filter: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  return events / sw.ElapsedSeconds();
}

// One joint run times only a few readings, so a single run swings by a
// third between runs of the same binary; the row reports the median of
// several identical runs with their range.
struct Repeated {
  double median, min, max;
};

Repeated MeasureJointRepeated(size_t objects, int events, int runs) {
  std::vector<double> rates;
  for (int r = 0; r < runs; ++r) {
    rates.push_back(MeasureJoint(objects, events));
  }
  std::sort(rates.begin(), rates.end());
  return {rates[rates.size() / 2], rates.front(), rates.back()};
}

struct FactoredResult {
  double readings_per_sec;
  size_t total_particles;  ///< live particle memory after the run
};

FactoredResult MeasureFactored(size_t objects, bool index, bool compression,
                               int events) {
  const double side = objects > 1000 ? 360.0 : 100.0;
  const WarehouseConfig config = ConfigForObjects(objects, side);
  WarehouseSimulator sim(config);
  FilterOptions opts;
  opts.particles_per_object = 100;
  opts.use_spatial_index = index;
  opts.use_compression = compression;
  opts.lazy_motion = index;  // eager motion when the index is off
  FactoredParticleFilter filter(objects, sim.shelf_positions(),
                                config.sensing, opts);
  usp::common::Stopwatch sw;
  for (int i = 0; i < events; ++i) filter.ProcessReading(sim.Step());
  return {events / sw.ElapsedSeconds(), filter.TotalParticles()};
}

void PrintAblation() {
  printf("\n=== PF optimization ablation ===\n");
  printf("%-28s %16s %18s\n", "configuration", "readings/sec",
         "live particles");
  const int kJointRuns = 7;
  const Repeated joint = MeasureJointRepeated(20, 30, kJointRuns);
  const double joint20 = joint.median;
  printf("%-28s %16.2f %18s   (median of %d runs, min %.2f, max %.2f)\n",
         "joint baseline, 20 obj", joint20, "5000x20 (joint)", kJointRuns,
         joint.min, joint.max);
  const FactoredResult fact20 = MeasureFactored(20, false, false, 2000);
  printf("%-28s %16.2f %18zu\n", "factored, 20 obj",
         fact20.readings_per_sec, fact20.total_particles);
  const FactoredResult fact20k = MeasureFactored(20000, false, false, 40);
  printf("%-28s %16.2f %18zu\n", "factored, 20k obj",
         fact20k.readings_per_sec, fact20k.total_particles);
  const FactoredResult idx20k = MeasureFactored(20000, true, false, 400);
  printf("%-28s %16.2f %18zu\n", "factored+index, 20k obj",
         idx20k.readings_per_sec, idx20k.total_particles);
  const FactoredResult full20k = MeasureFactored(20000, true, true, 400);
  printf("%-28s %16.2f %18zu\n", "factored+index+compr, 20k",
         full20k.readings_per_sec, full20k.total_particles);
  printf("\nscalability gain (full/20k vs median joint/20, x objects "
         "factored in): %.1e\n",
         full20k.readings_per_sec / joint20 * (20000.0 / 20.0));
  printf("(paper: 0.1 reading/s @20 obj -> >1000 readings/s @20k obj, "
         "\"7 orders of magnitude\"; compression's win is the particle "
         "memory column)\n\n");
}

void BM_Joint20(benchmark::State& state) {
  const WarehouseConfig config = ConfigForObjects(20, 100.0);
  WarehouseSimulator sim(config);
  FilterOptions opts;
  opts.particles_per_object = 5000;
  JointParticleFilter filter(20, sim.shelf_positions(), config.sensing,
                             opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.ProcessReading(sim.Step()));
  }
}

void BM_Full20k(benchmark::State& state) {
  const WarehouseConfig config = ConfigForObjects(20000, 360.0);
  WarehouseSimulator sim(config);
  FilterOptions opts;
  opts.particles_per_object = 100;
  FactoredParticleFilter filter(20000, sim.shelf_positions(),
                                config.sensing, opts);
  for (auto _ : state) filter.ProcessReading(sim.Step());
}

}  // namespace

BENCHMARK(BM_Joint20)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Full20k)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  PrintAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
