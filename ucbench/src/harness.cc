#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "stats/simd/dispatch.h"

namespace ucbench {

bool ParseOptions(int argc, char** argv, Options* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(out->seconds > 0.0)) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      out->trace = value == "1";
    } else if (flag == "--out-dir") {
      out->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (out->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

namespace {

// Nearest rank of percentile p among n samples: the smallest rank (1-based)
// with at least p of the samples at or below it. The epsilon keeps
// 0.99 * 1000 at rank 990 despite binary rounding.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::min(n, std::max<size_t>(1, static_cast<size_t>(
                                             std::max(rank, 1.0))));
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(p, v.size()) - 1];
}

TailValue TailPercentile(std::vector<double> v, double want,
                         size_t min_beyond) {
  TailValue out;
  const size_t n = v.size();
  out.samples = n;
  if (n <= min_beyond) return out;
  // A rank r leaves n - r samples strictly beyond it; keep at least
  // min_beyond there.
  const size_t rank = std::min(NearestRank(want, n), n - min_beyond);
  out.percentile = static_cast<double>(rank) / static_cast<double>(n);
  out.valid = 2 * rank >= n;
  std::sort(v.begin(), v.end());
  out.value = v[rank - 1];
  return out;
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SteadyClock::NowNs() { return SteadyNowNs(); }

void SteadyClock::SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

int64_t OpenLoopSchedule::WaitFor(size_t batch) {
  const int64_t due = DueNs(batch);
  if (clock_->NowNs() < due) clock_->SleepUntilNs(due);
  const int64_t sent = clock_->NowNs();
  lateness_ns_.push_back(std::max<int64_t>(0, sent - due));
  return sent;
}

int32_t Tracer::Begin(const char* name, int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start_ns = SteadyNowNs();
  spans_.push_back(s);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = SteadyNowNs();
  // Spans close in LIFO order (RAII); tolerate out-of-order closes anyway.
  auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::Add(const Span& span) {
  if (enabled_) spans_.push_back(span);
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals clipped to the parent.
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              int64_t origin_ns) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%lld,\"window_start\":%lld,"
                 "\"key\":%lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<long long>(s.request),
                 static_cast<long long>(s.arg0),
                 static_cast<long long>(s.arg1));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

void RunReport::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mib = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mib;
}

namespace {

std::string CpuModel() {
  FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.back() == '\n' || model.back() == ' '))
          model.pop_back();
        while (!model.empty() && model.front() == ' ') model.erase(0, 1);
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " +
           FormatNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
           "\"}";
  }
  return out + "}";
}

}  // namespace

void AddMachineFingerprint(RunReport* report) {
  auto& fp = report->fingerprint;
  fp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  fp["cpu_model"] = CpuModel();
  fp["simd_isa"] = usp::stats::simd::ActiveIsaName();
#ifdef UCBENCH_BUILD_TYPE
  fp["build_type"] = UCBENCH_BUILD_TYPE;
#else
  fp["build_type"] = "unknown";
#endif
#ifdef UCBENCH_FORCE_SCALAR
  fp["usp_force_scalar"] = UCBENCH_FORCE_SCALAR;
#else
  fp["usp_force_scalar"] = "unknown";
#endif
  const char* simd_env = std::getenv("USP_SIMD");
  fp["usp_simd_env"] = simd_env != nullptr ? simd_env : "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string ContractJson(const RunReport& report) {
  return std::string("{\"correct\": ") +
         (report.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"metrics\": " + MetricsJson(report.metrics) + "}";
}

std::string FullJson(const RunReport& report) {
  std::string out = "{\n  \"contract\": " + ContractJson(report) +
                    ",\n  \"extra\": " + MetricsJson(report.extra) +
                    ",\n  \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    out += (i ? ", \"" : "\"") + JsonEscape(report.failures[i]) + "\"";
  }
  out += "],\n  \"fingerprint\": {";
  bool first = true;
  for (const auto& [k, v] : report.fingerprint) {
    out += (first ? "\"" : ", \"") + JsonEscape(k) + "\": \"" +
           JsonEscape(v) + "\"";
    first = false;
  }
  return out + "}\n}\n";
}

}  // namespace ucbench
