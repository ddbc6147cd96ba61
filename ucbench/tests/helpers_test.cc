// Tests of the benchmark's own helpers: the tail-percentile rule, open-loop
// lateness accounting under an injected clock, seed determinism of the
// generators, and each workload's oracle on hand-built tiny inputs,
// including deliberately wrong rows.
//
//   python3 ucbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "generators.h"
#include "harness.h"
#include "oracles.h"

namespace ucbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  std::reverse(v.begin(), v.end());  // order must not matter
  return v;
}

// --- percentile rule ------------------------------------------------------

TEST(TailPercentile, UsesP99WhenTenSamplesLieBeyondIt) {
  const TailValue t = TailPercentile(OneTo(1000), 0.99);
  EXPECT_TRUE(t.valid);
  EXPECT_DOUBLE_EQ(t.percentile, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 990.0);  // 10 samples (991..1000) beyond
  EXPECT_EQ(t.samples, 1000u);
}

TEST(TailPercentile, FallsBackToHighestPercentileWithTenBeyond) {
  const TailValue t = TailPercentile(OneTo(500), 0.99);
  EXPECT_TRUE(t.valid);
  EXPECT_DOUBLE_EQ(t.percentile, 0.98);
  EXPECT_DOUBLE_EQ(t.value, 490.0);
}

TEST(TailPercentile, MedianIsTheLowestValidTail) {
  const TailValue t = TailPercentile(OneTo(20), 0.99);
  EXPECT_TRUE(t.valid);
  EXPECT_DOUBLE_EQ(t.percentile, 0.5);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_FALSE(TailPercentile(OneTo(19), 0.99).valid);
  EXPECT_FALSE(TailPercentile(OneTo(10), 0.99).valid);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(Percentile(OneTo(4), 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Median(OneTo(5)), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

// --- open-loop lateness ------------------------------------------------------

/// A clock that only moves when told to (or when slept on).
class FakeClock final : public Clock {
 public:
  int64_t NowNs() override { return now_; }
  void SleepUntilNs(int64_t deadline_ns) override {
    now_ = std::max(now_, deadline_ns);
  }
  void Advance(int64_t ns) { now_ += ns; }

 private:
  int64_t now_ = 0;
};

TEST(OpenLoopSchedule, ABlockedPushMakesEveryLaterBatchLateUntilCaughtUp) {
  constexpr int64_t kMs = 1'000'000;
  FakeClock clock;
  OpenLoopSchedule schedule(&clock, /*start_ns=*/10 * kMs, /*period_ns=*/kMs);
  for (size_t i = 0; i < 10; ++i) {
    const int64_t sent = schedule.WaitFor(i);
    EXPECT_GE(sent, schedule.DueNs(i));
    // Each push takes 0.2 ms, except batch 3's, which blocks for 5 ms.
    clock.Advance(i == 3 ? 5 * kMs : kMs / 5);
  }
  const std::vector<int64_t> want = {
      0, 0, 0, 0, 4 * kMs, 3 * kMs + kMs / 5, 2 * kMs + 2 * kMs / 5,
      kMs + 3 * kMs / 5, 4 * kMs / 5, 0};
  EXPECT_EQ(schedule.lateness_ns(), want);
}

TEST(OpenLoopSchedule, SleepsUntilAbsoluteDeadlines) {
  FakeClock clock;
  OpenLoopSchedule schedule(&clock, 1000, 100);
  EXPECT_EQ(schedule.WaitFor(0), 1000);
  clock.Advance(30);
  EXPECT_EQ(schedule.WaitFor(1), 1100);  // not 1000 + 30 + 100
  EXPECT_EQ(schedule.WaitFor(5), 1500);
  EXPECT_EQ(schedule.lateness_ns(), (std::vector<int64_t>{0, 0, 0}));
}

// --- seed determinism --------------------------------------------------------

TEST(Generators, ZipfStreamIsAFunctionOfTheSeed) {
  ZipfGaussianStream a(7, 1024, 1.1), b(7, 1024, 1.1), c(8, 1024, 1.1);
  bool differs = false;
  std::map<int64_t, size_t> counts;
  for (int i = 0; i < 20000; ++i) {
    const GaussRecord x = a.Next(), y = b.Next(), z = c.Next();
    ASSERT_EQ(x.key, y.key);
    ASSERT_EQ(x.mu, y.mu);
    ASSERT_EQ(x.sd, y.sd);
    differs |= x.key != z.key || x.mu != z.mu;
    ++counts[x.key];
  }
  EXPECT_TRUE(differs);
  // Skewed: key 0 is the most frequent, far above a uniform share.
  const auto top = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& l, const auto& r) { return l.second < r.second; });
  EXPECT_EQ(top->first, 0);
  EXPECT_GT(top->second, 20000u / 1024u * 20u);
}

TEST(Generators, KeyedGaussiansAndSubscriptionsAreFunctionsOfTheSeed) {
  const auto a = MakeKeyedGaussians(3, 5000, 4096, 1);
  const auto b = MakeKeyedGaussians(3, 5000, 4096, 1);
  const auto c = MakeKeyedGaussians(4, 5000, 4096, 1);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].key, b[i].key);
    ASSERT_EQ(a[i].mu, b[i].mu);
    ASSERT_EQ(a[i].sd, b[i].sd);
    differs |= a[i].key != c[i].key;
  }
  EXPECT_TRUE(differs);
  const auto s1 = MakeAlertSubs(9, 3000, 1024);
  const auto s2 = MakeAlertSubs(9, 3000, 1024);
  for (size_t i = 0; i < s1.size(); ++i) {
    ASSERT_EQ(s1[i].kind, s2[i].kind);
    ASSERT_EQ(s1[i].key, s2[i].key);
    ASSERT_EQ(s1[i].threshold, s2[i].threshold);
    ASSERT_EQ(s1[i].confidence, s2[i].confidence);
    ASSERT_EQ(s1[i].id, i + 1);
  }
}

TEST(Generators, SensorPopulationIsAFunctionOfTheSeed) {
  const SensorPopulation a = MakeSensorPopulation(5, 4000, 256, 1, 0.5, 32);
  const SensorPopulation b = MakeSensorPopulation(5, 4000, 256, 1, 0.5, 32);
  const SensorPopulation c = MakeSensorPopulation(6, 4000, 256, 1, 0.5, 32);
  ASSERT_EQ(a.shared_models.size(), 32u);
  for (size_t i = 0; i < a.shared_models.size(); ++i) {
    EXPECT_EQ(a.shared_models[i].family, b.shared_models[i].family);
    EXPECT_EQ(a.shared_models[i].params, b.shared_models[i].params);
  }
  std::map<int, size_t> families;
  size_t shared = 0;
  bool differs = false;
  for (size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(a.records[i].key, b.records[i].key);
    ASSERT_EQ(a.records[i].shared, b.records[i].shared);
    ASSERT_EQ(a.records[i].model.params, b.records[i].model.params);
    differs |= a.records[i].key != c.records[i].key;
    if (a.records[i].shared >= 0) {
      ++shared;
    } else {
      ++families[a.records[i].model.family];
    }
  }
  EXPECT_TRUE(differs);
  // Roughly half shared; every family present among the unique models.
  EXPECT_GT(shared, 1600u);
  EXPECT_LT(shared, 2400u);
  EXPECT_EQ(families.size(), 4u);
  for (const SensorRecord& r : a.records) {
    if (r.shared < 0) {
      const auto d = r.model.Build();
      ASSERT_NE(d, nullptr);
      EXPECT_GT(d->Variance(), 0.0);
    }
  }
}

// --- oracles -----------------------------------------------------------------

TEST(WindowStarts, TumblingAndSlidingIncludingNegativeTime) {
  EXPECT_EQ(WindowStarts(7, 4, 4), (std::vector<int64_t>{4}));
  EXPECT_EQ(WindowStarts(5, 4, 1), (std::vector<int64_t>{5, 4, 3, 2}));
  EXPECT_EQ(WindowStarts(0, 4, 2), (std::vector<int64_t>{0, -2}));
  EXPECT_EQ(WindowStarts(-1, 4, 4), (std::vector<int64_t>{-4}));
}

/// q1_keyed_sum's oracle: Gaussian sums with HAVING P(sum > t) >= 0.5.
TEST(Oracle, KeyedSumWithHavingRejectsWrongMissingAndExtraRows) {
  ExpectedGroups g;
  g[{10, "1"}].Add(60.0, 4.0);
  g[{10, "1"}].Add(40.0, 5.0);  // sum N(100, 9): passes HAVING > 88
  g[{10, "2"}].Add(50.0, 9.0);  // N(50, 9): filtered out
  g[{20, "1"}].Add(95.0, 1.0);  // passes
  auto decide = [](const GroupMoments& m) {
    return GaussianHaving(m, 88.0, 0.5, 1e-9);
  };
  const Tolerance tol{0.0, 1e-7, 1e-6};
  const std::vector<AggRow> good = {{10, "1", 100.0, 9.0},
                                    {20, "1", 95.0, 1.0}};
  EXPECT_EQ(CheckAggRows(g, good, tol, decide).failures(), 0u);
  EXPECT_EQ(CheckAggRows(g, good, tol, decide).expected, 2u);

  std::vector<AggRow> wrong = good;
  wrong[0].mean = 100.5;  // deliberately wrong sum
  const OracleReport w = CheckAggRows(g, wrong, tol, decide);
  EXPECT_EQ(w.wrong, 1u);
  EXPECT_EQ(w.failures(), 1u);

  const OracleReport m = CheckAggRows(g, {good[0]}, tol, decide);
  EXPECT_EQ(m.missing, 1u);

  std::vector<AggRow> extra = good;
  extra.push_back({10, "2", 50.0, 9.0});  // HAVING should have dropped it
  extra.push_back({20, "1", 95.0, 1.0});  // duplicate
  const OracleReport e = CheckAggRows(g, extra, tol, decide);
  EXPECT_EQ(e.extra, 2u);
  EXPECT_EQ(e.failures(), 2u);
}

TEST(Oracle, HavingBoundaryRowsAreExcusedEitherWay) {
  ExpectedGroups g;
  g[{10, "1"}].Add(88.0, 4.0);  // P(sum > 88) = 0.5 exactly
  auto decide = [](const GroupMoments& m) {
    return GaussianHaving(m, 88.0, 0.5, 1e-9);
  };
  const Tolerance tol{0.0, 1e-7, 1e-6};
  EXPECT_EQ(CheckAggRows(g, {}, tol, decide).failures(), 0u);
  EXPECT_EQ(CheckAggRows(g, {{10, "1", 88.0, 4.0}}, tol, decide).failures(),
            0u);
}

/// sliding_cf_inversion's oracle: every (window, key) row, mean/variance
/// within the histogram tolerance.
TEST(Oracle, SlidingRowsMustCoverEveryWindowWithinTolerance) {
  ExpectedGroups g;
  for (int64_t ts : {0, 1, 2, 3, 4, 5}) {
    for (int64_t start : WindowStarts(ts, 4, 2)) {
      g[{start + 4, "k"}].Add(1.0, 0.25);
    }
  }
  ASSERT_EQ(g.size(), 4u);  // windows ending 2, 4, 6, 8
  const Tolerance tol{0.02, 1e-9, 0.03};
  std::vector<AggRow> rows;
  for (const auto& [id, m] : g) {
    rows.push_back({id.first, id.second, m.mean + 0.01 * std::sqrt(m.var),
                    m.var * 1.02});
  }
  EXPECT_EQ(CheckAggRows(g, rows, tol, nullptr).failures(), 0u);
  rows[1].var *= 1.1;  // deliberately wrong variance
  EXPECT_EQ(CheckAggRows(g, rows, tol, nullptr).wrong, 1u);
  rows.pop_back();  // and a missing window
  EXPECT_EQ(CheckAggRows(g, rows, tol, nullptr).failures(), 2u);
}

/// rfid_fire_code's oracle: string area keys, sums recomputed from the
/// pushed batches, HAVING P(sum > 200) >= 0.5.
TEST(Oracle, FireCodeAreaSumsRejectAWrongArea) {
  ExpectedGroups g;
  for (int i = 0; i < 3; ++i) g[{5'000'000, "area_1_2"}].Add(120.0, 5.76);
  g[{5'000'000, "area_3_3"}].Add(25.0, 0.25);
  auto decide = [](const GroupMoments& m) {
    return GaussianHaving(m, 200.0, 0.5, 1e-9);
  };
  const Tolerance tol{0.0, 1e-7, 1e-6};
  EXPECT_EQ(CheckAggRows(g, {{5'000'000, "area_1_2", 360.0, 17.28}}, tol,
                         decide)
                .failures(),
            0u);
  // The right sum reported under the wrong area: one extra, one missing.
  const OracleReport r = CheckAggRows(
      g, {{5'000'000, "area_1_3", 360.0, 17.28}}, tol, decide);
  EXPECT_EQ(r.extra, 1u);
  EXPECT_EQ(r.missing, 1u);
}

/// alerts_open_loop's oracle: CLT AVG matches per subscription.
TEST(Oracle, AlertMatchesRejectExtraMissingAndDuplicateCallbacks) {
  // Key 3 averages N(50, 1/4) over two readings; key 4 averages 20.
  std::vector<GroupMoments> window(5);
  window[3].Add(49.0, 0.5);
  window[3].Add(51.0, 0.5);
  window[4].Add(20.0, 1.0);
  std::vector<AlertSub> subs(5);
  subs[0] = {1, AlertSub::kKey, 3, 0, 0, 45.0, 0.9};   // fires
  subs[1] = {2, AlertSub::kKey, 3, 0, 0, 55.0, 0.5};   // does not
  subs[2] = {3, AlertSub::kRange, 0, 2, 4, 45.0, 0.5}; // key 3 only
  subs[3] = {4, AlertSub::kAll, 0, 0, 0, 10.0, 0.95};  // both keys
  subs[4] = {5, AlertSub::kKey, 4, 0, 0, 15.0, 0.5};   // key 4
  ExpectedMatches want;
  ExpectAvgMatches(20, window, AlertSubIndex(subs), 1e-9, &want);
  const std::vector<Match> good = {
      {20, 3, 1}, {20, 3, 3}, {20, 3, 4}, {20, 4, 4}, {20, 4, 5}};
  EXPECT_EQ(want.must.size(), good.size());
  EXPECT_EQ(CheckMatches(want, good).failures(), 0u);

  std::vector<Match> bad = good;
  bad.push_back({20, 3, 2});  // a threshold that should not have fired
  bad.push_back({20, 4, 4});  // duplicate callback
  bad.erase(bad.begin());     // and a missed alert
  const OracleReport r = CheckMatches(want, bad);
  EXPECT_EQ(r.extra, 2u);
  EXPECT_EQ(r.missing, 1u);
}

TEST(Oracle, AlertBoundaryMatchesAreExcused) {
  std::vector<GroupMoments> window(2);
  window[1].Add(50.0, 1.0);  // P(avg > 50) = 0.5 exactly
  const std::vector<AlertSub> subs = {
      {1, AlertSub::kKey, 1, 0, 0, 50.0, 0.5}};
  ExpectedMatches want;
  ExpectAvgMatches(20, window, AlertSubIndex(subs), 1e-9, &want);
  EXPECT_TRUE(want.must.empty());
  EXPECT_EQ(want.boundary.size(), 1u);
  EXPECT_EQ(CheckMatches(want, {}).failures(), 0u);
  EXPECT_EQ(CheckMatches(want, {{20, 1, 1}}).failures(), 0u);
}

}  // namespace
}  // namespace ucbench
