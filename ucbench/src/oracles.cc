#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ucbench {

namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::string Describe(const GroupId& id) {
  return "window_end=" + std::to_string(id.first) + " key=" + id.second;
}

}  // namespace

std::vector<int64_t> WindowStarts(int64_t ts, int64_t size, int64_t slide) {
  // Starts s = j * slide with s <= ts < s + size.
  std::vector<int64_t> out;
  for (int64_t j = FloorDiv(ts, slide); j * slide > ts - size; --j) {
    out.push_back(j * slide);
  }
  return out;
}

OracleReport CheckAggRows(const ExpectedGroups& expected,
                          const std::vector<AggRow>& rows,
                          const Tolerance& tol, const DecideFn& decide) {
  OracleReport report;
  std::map<GroupId, size_t> seen;
  for (const AggRow& row : rows) {
    const GroupId id{row.window_end, row.key};
    ++report.checked;
    if (++seen[id] > 1) {
      ++report.extra;
      report.Note("duplicate row " + Describe(id));
      continue;
    }
    const auto it = expected.find(id);
    const Decision d = it == expected.end()
                           ? Decision::kDrop
                           : (decide ? decide(it->second) : Decision::kKeep);
    if (d == Decision::kBoundary) {
      ++report.boundary;
      continue;
    }
    if (d == Decision::kDrop) {
      ++report.extra;
      report.Note("unexpected row " + Describe(id));
      continue;
    }
    const GroupMoments& g = it->second;
    const double sd = std::sqrt(std::max(g.var, 0.0));
    const double mean_tol = tol.mean_sd * sd + tol.mean_rel * std::fabs(g.mean);
    const bool mean_ok = std::fabs(row.mean - g.mean) <= mean_tol;
    const bool var_ok = std::fabs(row.var - g.var) <= tol.var_rel * g.var;
    if (!mean_ok || !var_ok) {
      ++report.wrong;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    " mean %.9g (want %.9g) var %.9g (want %.9g)", row.mean,
                    g.mean, row.var, g.var);
      report.Note("wrong row " + Describe(id) + buf);
    }
  }
  for (const auto& [id, g] : expected) {
    const Decision d = decide ? decide(g) : Decision::kKeep;
    if (d == Decision::kKeep) ++report.expected;
    if (d == Decision::kBoundary && seen.count(id) == 0) ++report.boundary;
    if (d == Decision::kKeep && seen.count(id) == 0) {
      ++report.missing;
      report.Note("missing row " + Describe(id));
    }
  }
  return report;
}

double GaussianTail(double mean, double var, double t) {
  const double sd = std::sqrt(std::max(var, 0.0));
  if (sd <= 0.0) return mean > t ? 1.0 : 0.0;
  return 0.5 * std::erfc((t - mean) / (sd * std::sqrt(2.0)));
}

Decision GaussianHaving(const GroupMoments& g, double threshold,
                        double confidence, double eps) {
  const double p = GaussianTail(g.mean, g.var, threshold);
  if (std::fabs(p - confidence) <= eps) return Decision::kBoundary;
  return p >= confidence ? Decision::kKeep : Decision::kDrop;
}

AlertSubIndex::AlertSubIndex(const std::vector<AlertSub>& subs) {
  for (const AlertSub& s : subs) {
    if (s.kind == AlertSub::kKey) {
      by_key_[s.key].push_back(s);
    } else if (s.kind == AlertSub::kRange) {
      for (int64_t k = s.lo; k <= s.hi; ++k) by_key_[k].push_back(s);
    } else {
      all_.push_back(s);
    }
  }
}

void ExpectAvgMatches(int64_t window_end,
                      const std::vector<GroupMoments>& by_key,
                      const AlertSubIndex& subs, double eps,
                      ExpectedMatches* out) {
  for (size_t k = 0; k < by_key.size(); ++k) {
    const GroupMoments& g = by_key[k];
    if (g.count == 0) continue;
    const auto key = static_cast<int64_t>(k);
    const double n = static_cast<double>(g.count);
    const double avg_mean = g.mean / n;
    const double avg_var = g.var / (n * n);
    // Subscriptions share a few round-number thresholds: one tail each.
    std::vector<std::pair<double, double>> tails;
    auto tail = [&](double t) {
      for (const auto& [threshold, p] : tails) {
        if (threshold == t) return p;
      }
      tails.emplace_back(t, GaussianTail(avg_mean, avg_var, t));
      return tails.back().second;
    };
    subs.ForEachInScope(key, [&](const AlertSub& s) {
      const Match m{window_end, key, s.id};
      const double p = tail(s.threshold);
      if (std::fabs(p - s.confidence) <= eps) {
        out->boundary.push_back(m);
      } else if (p >= s.confidence) {
        out->must.push_back(m);
      }
    });
  }
}

OracleReport CheckMatches(ExpectedMatches expected, std::vector<Match> actual) {
  std::sort(expected.must.begin(), expected.must.end());
  std::sort(expected.boundary.begin(), expected.boundary.end());
  std::sort(actual.begin(), actual.end());
  auto describe = [](const Match& m) {
    return "window_end=" + std::to_string(m.window_end) +
           " key=" + std::to_string(m.key) + " sub=" + std::to_string(m.sub);
  };
  auto contains = [](const std::vector<Match>& v, const Match& m) {
    return std::binary_search(v.begin(), v.end(), m);
  };
  OracleReport report;
  report.expected = expected.must.size();
  for (size_t i = 0; i < actual.size(); ++i) {
    const Match& m = actual[i];
    ++report.checked;
    if (i > 0 && actual[i - 1] == m) {
      ++report.extra;
      report.Note("duplicate match " + describe(m));
    } else if (contains(expected.boundary, m)) {
      ++report.boundary;
    } else if (!contains(expected.must, m)) {
      ++report.extra;
      report.Note("unexpected match " + describe(m));
    }
  }
  for (const Match& m : expected.must) {
    if (!contains(actual, m)) {
      ++report.missing;
      report.Note("missing match " + describe(m));
    }
  }
  return report;
}

}  // namespace ucbench
