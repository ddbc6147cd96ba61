#include "workloads.h"

#include "query/planner.h"
#include "stream/value.h"

namespace ucbench {

const std::vector<WorkloadEntry>& Workloads() {
  static const std::vector<WorkloadEntry> kWorkloads = {
      {"q1_keyed_sum", RunQ1KeyedSum},
      {"sliding_cf_inversion", RunSlidingCfInversion},
      {"alerts_open_loop", RunAlertsOpenLoop},
      {"rfid_fire_code", RunRfidFireCode},
  };
  return kWorkloads;
}

AggRow ToAggRow(const usp::stream::Tuple& row, size_t col) {
  AggRow out;
  out.window_end = row.timestamp();
  out.key = row.value(0).is_string()
                ? row.value(0).AsString()
                : usp::stream::CanonicalKeyString(row.value(0));
  const usp::stream::Value& v = row.value(col);
  if (v.is_distribution()) {
    out.mean = v.AsDistribution()->Mean();
    out.var = v.AsDistribution()->Variance();
  } else if (v.is_numeric()) {
    out.mean = v.AsDouble();
  }
  return out;
}

size_t ReferenceGridPoints() {
  return 8 * usp::query::PlannerOptions().cf_grid_points;
}

std::vector<ErrorSample> SampleGroups(
    const std::vector<usp::stream::Tuple>& output,
    const std::vector<usp::stream::TupleBatch>& inputs, int64_t size,
    int64_t slide, size_t want) {
  std::vector<ErrorSample> samples;
  std::map<GroupId, size_t> wanted;
  for (size_t i : EvenSample(output.size(), want)) {
    const AggRow row = ToAggRow(output[i], 1);
    wanted[{row.window_end, row.key}] = samples.size();
    samples.push_back({output[i].value(1).AsDistribution(), {}, false, {}});
  }
  for (const usp::stream::TupleBatch& b : inputs) {
    for (const usp::stream::Tuple& t : b) {
      const std::string key = usp::stream::CanonicalKeyString(t.value(0));
      for (int64_t start : WindowStarts(t.timestamp(), size, slide)) {
        auto it = wanted.find({start + size, key});
        if (it != wanted.end()) {
          samples[it->second].inputs.push_back(
              t.value(1).AsDistribution().get());
        }
      }
    }
  }
  return samples;
}

}  // namespace ucbench
