// Oracles behind the benchmark's correctness check. Expected results are
// computed from the generator's own parameters (or, for RFID, from the
// batches the benchmark pushed), never by running the program's operators,
// and compared with what the program emitted. Every mismatch counts as one
// failed operation.
#ifndef UCBENCH_ORACLES_H_
#define UCBENCH_ORACLES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace ucbench {

/// Exact first two moments of one (window, key) group's aggregate input.
struct GroupMoments {
  double mean = 0.0;  ///< sum of the inputs' means
  double var = 0.0;   ///< sum of the inputs' variances
  size_t count = 0;
  void Add(double m, double v) {
    mean += m;
    var += v;
    ++count;
  }
};

/// (window end, canonical group key string) — the identity of a result row.
using GroupId = std::pair<int64_t, std::string>;
using ExpectedGroups = std::map<GroupId, GroupMoments>;

/// Every window start containing `ts` for a window of `size` sliding by
/// `slide` (starts are multiples of `slide`; tumbling when equal).
std::vector<int64_t> WindowStarts(int64_t ts, int64_t size, int64_t slide);

/// One emitted aggregate value reduced to what the oracle compares.
struct AggRow {
  int64_t window_end = 0;
  std::string key;
  double mean = 0.0;
  double var = 0.0;
};

struct Tolerance {
  double mean_sd = 0.0;   ///< allowed |mean error| in units of the sd
  double mean_rel = 0.0;  ///< plus this share of |mean|
  double var_rel = 0.0;   ///< allowed relative variance error
};

/// HAVING decision for a group: emitted, filtered out, or too close to the
/// confidence boundary to hold the program to either answer.
enum class Decision { kKeep, kDrop, kBoundary };
using DecideFn = std::function<Decision(const GroupMoments&)>;

struct OracleReport {
  size_t expected = 0;  ///< rows the oracle required
  size_t checked = 0;   ///< rows compared
  size_t missing = 0;
  size_t extra = 0;
  size_t wrong = 0;
  size_t boundary = 0;  ///< rows excused either way
  std::vector<std::string> examples;
  size_t failures() const { return missing + extra + wrong; }
  void Note(const std::string& what) {
    if (examples.size() < 5) examples.push_back(what);
  }
};

/// Compares emitted rows with the expected groups. `decide` (may be empty =
/// keep all) says which groups the program must emit. Each expected row
/// must appear exactly once with mean/variance inside `tol`; any other
/// row is extra.
OracleReport CheckAggRows(const ExpectedGroups& expected,
                          const std::vector<AggRow>& rows,
                          const Tolerance& tol, const DecideFn& decide);

/// P(X > t) for X ~ N(mean, var), by the closed form.
double GaussianTail(double mean, double var, double t);

/// Decision of HAVING P(agg > threshold) >= confidence on a Gaussian
/// aggregate with the group's moments, with a boundary band of `eps` in
/// probability.
Decision GaussianHaving(const GroupMoments& g, double threshold,
                        double confidence, double eps);

// --- standing subscriptions ---------------------------------------------

/// A generated standing query (mirrors query::Subscription's shapes).
struct AlertSub {
  enum Kind : int { kKey = 0, kRange = 1, kAll = 2 };
  uint64_t id = 0;
  Kind kind = kKey;
  int64_t key = 0;
  int64_t lo = 0, hi = 0;
  double threshold = 0.0;
  double confidence = 0.5;
};

/// One OnMatch callback: (window end, int group key, subscription id).
struct Match {
  int64_t window_end = 0;
  int64_t key = 0;
  uint64_t sub = 0;
  bool operator<(const Match& o) const {
    return std::tie(window_end, key, sub) < std::tie(o.window_end, o.key,
                                                     o.sub);
  }
  bool operator==(const Match& o) const {
    return window_end == o.window_end && key == o.key && sub == o.sub;
  }
};

/// Subscriptions indexed by scope, so expected matches are found in
/// O(subscriptions in scope) per group.
class AlertSubIndex {
 public:
  explicit AlertSubIndex(const std::vector<AlertSub>& subs);
  template <typename Fn>
  void ForEachInScope(int64_t key, Fn&& fn) const {
    if (const auto it = by_key_.find(key); it != by_key_.end()) {
      for (const AlertSub& s : it->second) fn(s);
    }
    for (const AlertSub& s : all_) fn(s);
  }

 private:
  /// Exact-key subscriptions, and each range under every key it covers.
  std::map<int64_t, std::vector<AlertSub>> by_key_;
  std::vector<AlertSub> all_;  ///< all-groups
};

struct ExpectedMatches {
  std::vector<Match> must;      ///< matches the program must deliver
  std::vector<Match> boundary;  ///< within eps of the confidence boundary
};

/// Adds the expected matches of one window of AVG-via-CLT subscriptions.
/// `by_key[k]` holds the SUM moments of key k's readings in the window
/// (count 0: no group); the AVG divides by the count.
void ExpectAvgMatches(int64_t window_end,
                      const std::vector<GroupMoments>& by_key,
                      const AlertSubIndex& subs, double eps,
                      ExpectedMatches* out);

/// Each required match delivered exactly once, nothing else outside the
/// boundary band.
OracleReport CheckMatches(ExpectedMatches expected, std::vector<Match> actual);

}  // namespace ucbench

#endif  // UCBENCH_ORACLES_H_
