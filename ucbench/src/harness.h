// Measurement plumbing shared by every workload of the end-to-end
// benchmark: command-line options, order statistics (median, quartiles and
// the "highest percentile with >= 10 samples beyond it" tail rule), a
// wall-clock abstraction that tests can replace, the open-loop send
// schedule, an in-memory span tracer, and the result record every workload
// fills in.
#ifndef UCBENCH_HARNESS_H_
#define UCBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ucbench {

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the per-run result file and trace (created on demand).
  std::string out_dir = ".bench_out";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
/// Returns false (with a message in *error) on a missing or bad value.
bool ParseOptions(int argc, char** argv, Options* out, std::string* error);

// ---------------------------------------------------------------------------
// Order statistics

double Median(std::vector<double> v);

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty input.
double Percentile(std::vector<double> v, double p);

/// A tail percentile chosen by the reporting rule: the highest percentile
/// <= `want` that still has at least `min_beyond` samples strictly beyond
/// its rank. `percentile` is what was used (e.g. 0.99 or 0.983); `valid`
/// is false when even the median lacks that many samples beyond it.
struct TailValue {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  bool valid = false;
};
TailValue TailPercentile(std::vector<double> v, double want,
                         size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Clock + open-loop schedule

/// Wall clock in nanoseconds since an arbitrary epoch. The open-loop
/// generator takes one so tests can inject a fake clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowNs() = 0;
  /// Blocks until NowNs() >= deadline_ns (absolute deadline).
  virtual void SleepUntilNs(int64_t deadline_ns) = 0;
};

class SteadyClock final : public Clock {
 public:
  int64_t NowNs() override;
  void SleepUntilNs(int64_t deadline_ns) override;
};

int64_t SteadyNowNs();

/// Fixed wall-clock schedule: batch i is due at start + i * period. The
/// schedule never slows down: a batch sent late (because an earlier push
/// blocked) is sent immediately, and its lateness is recorded, so one
/// stall counts against every later batch until the sender catches up.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock* clock, int64_t start_ns, int64_t period_ns)
      : clock_(clock), start_ns_(start_ns), period_ns_(period_ns) {}

  int64_t DueNs(size_t batch) const {
    return start_ns_ + static_cast<int64_t>(batch) * period_ns_;
  }
  /// Sleeps until batch `batch` is due (no-op when already late) and
  /// records its lateness: the send instant minus the due instant.
  /// Returns the send instant.
  int64_t WaitFor(size_t batch);

  /// Lateness of each batch waited for, in nanoseconds, in batch order.
  const std::vector<int64_t>& lateness_ns() const { return lateness_ns_; }

 private:
  Clock* clock_;
  int64_t start_ns_;
  int64_t period_ns_;
  std::vector<int64_t> lateness_ns_;
};

// ---------------------------------------------------------------------------
// Spans

/// In-memory span recorder for the traced run. Spans are opened and closed
/// by the benchmark's own code around each call into a layer; nothing
/// inside the program is instrumented. Single-threaded: only the generator
/// thread records.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    /// Request id: the input batch sequence number (or pass number for
    /// pass-level spans). Result spans carry the window start in `arg0`
    /// and the group key in `arg1`.
    int64_t request = -1;
    int64_t arg0 = -1;
    int64_t arg1 = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  int32_t Begin(const char* name, int64_t request);
  void End(int32_t index);
  /// Records an already-finished span, e.g. a result span reconstructed
  /// from callback timestamps taken on another thread.
  void Add(const Span& span);

  /// Self time (duration minus the part of it covered by child spans),
  /// summed per span name, in seconds.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Chrome trace-event JSON ("X" events; parent and request in args).
  bool WriteChromeTrace(const std::string& path, int64_t origin_ns) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer),
        index_(tracer->enabled() ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `metrics` holds the values named
/// in BENCHMARK.json (end-to-end or per-layer, by trace mode); `extra`
/// holds workload-specific numbers that only exist on some workloads and
/// go to the result file and the printed table, not the contract line.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> fingerprint;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra[name] = {value, unit};
  }
};

/// VmHWM (peak resident set) of this process in MiB; 0 where unsupported.
double PeakRssMiB();

/// Machine/build part of the fingerprint: nproc, CPU model, active SIMD
/// tier, build type, USP_FORCE_SCALAR, USP_SIMD.
void AddMachineFingerprint(RunReport* report);

/// The contract line: {"correct", "attempted", "failed", "metrics"}.
std::string ContractJson(const RunReport& report);
/// The full result file: contract fields plus extras and fingerprint.
std::string FullJson(const RunReport& report);

std::string JsonEscape(const std::string& s);

}  // namespace ucbench

#endif  // UCBENCH_HARNESS_H_
