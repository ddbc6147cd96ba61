// Windowed-plan throughput: tuples/sec for Q1-style tumbling and sliding
// group-by-aggregate plans at batch sizes 1 / 64 / 1024, comparing the
// naive per-window recompute path against the pane-incremental path.
// Emits BENCH_window_throughput.json so the perf trajectory is tracked
// across PRs. `--smoke` shrinks the stream for sanitizer CI runs.
//
// The plan is declared once with the query builder; the planner's
// aggregate-path knob selects the physical operator: kAuto is the
// pane-incremental path every application gets, kForceNaive the exact
// per-window reference path.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "query/planner.h"
#include "query/query.h"
#include "stats/gaussian_mixture.h"
#include "stream/batch.h"
#include "uncertain/sum_strategies.h"

namespace {

using usp::query::PlannerOptions;
using usp::query::Query;
using usp::stats::DistributionPtr;
using usp::stats::GaussianMixture;
using usp::stream::Tuple;
using usp::stream::TupleBatch;
using usp::stream::Value;
using usp::stream::WindowSpec;

size_t g_num_tuples = 20000;
bool g_smoke = false;

std::vector<Tuple> MakeStream(uint64_t seed) {
  usp::common::Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(g_num_tuples);
  const char* areas[] = {"A", "B", "C", "D"};
  for (size_t i = 0; i < g_num_tuples; ++i) {
    std::vector<GaussianMixture::Component> comps;
    const size_t k = 1 + rng.UniformInt(2);
    for (size_t c = 0; c < k; ++c) {
      comps.push_back(
          {0.2 + rng.Uniform(), rng.Uniform(-5.0, 5.0), 0.3 + rng.Uniform()});
    }
    Tuple t(static_cast<int64_t>(i),
            {Value(std::string(areas[rng.UniformInt(4)])),
             Value(DistributionPtr(std::make_shared<GaussianMixture>(
                 GaussianMixture::Make(std::move(comps)).MoveValueUnsafe())))});
    t.InitBaseLineage();
    out.push_back(std::move(t));
  }
  return out;
}

struct Measurement {
  std::string plan;       // "tumbling" / "sliding"
  std::string path;       // "naive" / "paned"
  size_t batch_size;
  double tuples_per_sec;
};

double RunPlan(WindowSpec spec, bool paned, const std::vector<Tuple>& stream,
               size_t batch_size) {
  // Q1 shape, declared once; the force knob picks the physical path.
  auto q = Query::From("src", 2)
               .Window(spec)
               .GroupBy(0)
               .Sum("sum", 1, usp::uncertain::SumStrategyKind::kClt)
               .Count("cnt")
               .Sink("sink");
  PlannerOptions opts;
  // Pin one shard: this bench measures the window kernels themselves, so
  // the planner's auto-sharding (machine-dependent) must not kick in.
  opts.num_shards = 1;
  opts.aggregate_path = paned ? PlannerOptions::AggregatePath::kAuto
                              : PlannerOptions::AggregatePath::kForceNaive;
  auto compiled_or = q.Compile(opts);
  if (!compiled_or.ok()) return 0.0;
  auto compiled = compiled_or.MoveValueUnsafe();
  const auto source = compiled->source("src");
  // Slice before starting the clock: measure the executor path, not the
  // tuple copies that build the batches.
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    TupleBatch batch;
    for (size_t j = i; j < std::min(i + batch_size, stream.size()); ++j) {
      batch.Append(stream[j]);
    }
    batches.push_back(std::move(batch));
  }
  usp::common::Stopwatch sw;
  for (const TupleBatch& batch : batches) {
    if (!compiled->PushBatch(source, batch).ok()) return 0.0;
  }
  if (!compiled->Finish().ok()) return 0.0;
  return static_cast<double>(stream.size()) / sw.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  const usp::bench::Args args = usp::bench::ParseArgs(argc, argv);
  g_smoke = args.smoke;
  const char* isa = usp::bench::ApplySimdFlag(args);  // before any CF work
  const char* json_out = args.JsonOutPath("BENCH_window_throughput.json");
  printf("SIMD dispatch: %s\n", isa);
  if (g_smoke) g_num_tuples = 1500;
  const auto stream = MakeStream(7);
  // Q1 shape: [Range 100 us] tumbling, and a 4-overlap sliding variant.
  const WindowSpec tumbling = WindowSpec::Tumbling(100);
  const WindowSpec sliding = WindowSpec::Sliding(100, 25);

  std::vector<Measurement> results;
  printf("=== Windowed group-by throughput (CLT SUM, %zu tuples) ===\n",
         g_num_tuples);
  printf("%-10s %-7s %-11s %14s\n", "plan", "path", "batch_size",
         "tuples/sec");
  for (const auto& [plan_name, spec] :
       {std::pair<const char*, WindowSpec>{"tumbling", tumbling},
        std::pair<const char*, WindowSpec>{"sliding", sliding}}) {
    for (size_t batch_size : {size_t{1}, size_t{64}, size_t{1024}}) {
      const double naive_tps =
          RunPlan(spec, /*paned=*/false, stream, batch_size);
      const double paned_tps =
          RunPlan(spec, /*paned=*/true, stream, batch_size);
      results.push_back({plan_name, "naive", batch_size, naive_tps});
      results.push_back({plan_name, "paned", batch_size, paned_tps});
      printf("%-10s %-7s %-11zu %14.0f\n", plan_name, "naive", batch_size,
             naive_tps);
      printf("%-10s %-7s %-11zu %14.0f\n", plan_name, "paned", batch_size,
             paned_tps);
    }
  }

  FILE* f = fopen(json_out, "w");
  if (f) {
    fprintf(f, "{\n  \"bench\": \"window_throughput\",\n");
    fprintf(f, "  \"smoke\": %s,\n  \"num_tuples\": %zu,\n",
            g_smoke ? "true" : "false", g_num_tuples);
    fprintf(f, "  \"isa\": \"%s\",\n", isa);
    fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      fprintf(f,
              "    {\"plan\": \"%s\", \"path\": \"%s\", \"batch_size\": %zu, "
              "\"tuples_per_sec\": %.1f}%s\n",
              results[i].plan.c_str(), results[i].path.c_str(),
              results[i].batch_size, results[i].tuples_per_sec,
              i + 1 < results.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
  }
  return 0;
}
