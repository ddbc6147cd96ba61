// End-to-end benchmark for uncertain-stream queries.
//
//   ucbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Prints the fingerprint and every metric by name and unit, writes the
// full result (and, traced, a Chrome trace) under --out-dir, and prints as
// its last line the JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 1 when any operation failed or any output disagreed
// with the oracle, 2 on bad arguments.
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace ucbench;
  Options opt;
  std::string error;
  if (!ParseOptions(argc, argv, &opt, &error)) {
    std::fprintf(stderr, "ucbench: %s\n", error.c_str());
    return 2;
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : Workloads()) {
    if (opt.workload == w.name) entry = &w;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "ucbench: unknown workload '%s'; one of:",
                 opt.workload.c_str());
    for (const WorkloadEntry& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  Tracer tracer(opt.trace);
  const int64_t origin = SteadyNowNs();
  RunReport report = entry->run(opt, &tracer);
  if (!opt.trace) report.Set("peak_rss_mib", PeakRssMiB(), "MiB");
  report.Extra("peak_rss_mib", PeakRssMiB(), "MiB");
  report.Extra("error_rate",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "fraction");
  AddMachineFingerprint(&report);
  report.fingerprint["workload"] = opt.workload;
  report.fingerprint["seed"] = std::to_string(opt.seed);
  report.fingerprint["seconds"] = std::to_string(opt.seconds);
  report.fingerprint["trace"] = opt.trace ? "1" : "0";

  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string stem = opt.out_dir + "/" + opt.workload + "_seed" +
                           std::to_string(opt.seed) +
                           (opt.trace ? "_traced" : "");
  if (opt.trace) {
    tracer.WriteChromeTrace(stem + ".trace.json", origin);
    report.fingerprint["trace_file"] = stem + ".trace.json";
  }
  if (FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fputs(FullJson(report).c_str(), f);
    std::fclose(f);
  }

  std::printf("== %s (seed %llu, %s) ==\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced: per-layer metrics" : "end-to-end metrics");
  for (const auto& [k, v] : report.fingerprint) {
    std::printf("  fingerprint %-28s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("  metric %-32s %16.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, m] : report.extra) {
    std::printf("  extra  %-32s %16.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("  FAILED %s\n", f.c_str());
  }
  std::printf("%s\n", ContractJson(report).c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
