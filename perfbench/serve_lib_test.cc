// Tests of the serving benchmark's helpers: self time on synthetic span
// trees, the percentile tail rule, the order-insensitive fingerprint, and
// seed determinism of the generated query streams.

#include "serve_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "storage/schema.h"
#include "storage/value.h"

namespace opd::perfbench {
namespace {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(ExclusiveTimes, NestedTreeSubtractsChildren) {
  // query [0,100) -> rewrite [10,30) -> round [12,20)
  //               -> job [40,90) -> map [45,60), reduce [60,80)
  const std::vector<SpanInterval> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 30}, {3, 2, 12, 20},
      {4, 1, 40, 90}, {5, 4, 45, 60}, {6, 4, 60, 80}};
  const std::vector<double> self = ExclusiveTimes(spans);
  ASSERT_EQ(self.size(), 6u);
  EXPECT_DOUBLE_EQ(self[0], 100 - 20 - 50);
  EXPECT_DOUBLE_EQ(self[1], 20 - 8);
  EXPECT_DOUBLE_EQ(self[2], 8);
  EXPECT_DOUBLE_EQ(self[3], 50 - 35);
  EXPECT_DOUBLE_EQ(self[4], 15);
  EXPECT_DOUBLE_EQ(self[5], 20);
  EXPECT_DOUBLE_EQ(Sum(self), 100);
}

TEST(ExclusiveTimes, OverlappingChildrenSubtractTheirUnion) {
  // stage [0,100) with children pipeline [10,70) and reduce [20,90): the
  // naive duration minus the sum of children would be 100-60-70 = -30.
  const std::vector<SpanInterval> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 70}, {3, 1, 20, 90}};
  const std::vector<double> self = ExclusiveTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 80);  // minus the union [10,90)
  // [10,20) pipeline alone, [20,70) split, [70,90) reduce alone.
  EXPECT_DOUBLE_EQ(self[1], 10 + 25);
  EXPECT_DOUBLE_EQ(self[2], 25 + 20);
  EXPECT_DOUBLE_EQ(Sum(self), 100);
  for (double v : self) EXPECT_GE(v, 0);
}

TEST(ExclusiveTimes, OverlapInsideNestedSubtreesStillSumsToRoot) {
  // Two overlapping jobs, each with an overlapping pair of phases.
  const std::vector<SpanInterval> spans = {
      {1, 0, 0, 50},  {2, 1, 5, 30},  {3, 1, 20, 45}, {4, 2, 6, 25},
      {5, 2, 10, 28}, {6, 3, 21, 40}, {7, 3, 22, 44}};
  const std::vector<double> self = ExclusiveTimes(spans);
  EXPECT_NEAR(Sum(self), 50, 1e-9);
  for (double v : self) EXPECT_GE(v, 0);
  EXPECT_DOUBLE_EQ(self[0], 50 - 40);  // root minus union [5,45)
}

TEST(ExclusiveTimes, ZeroLengthAndEmptyInputs) {
  EXPECT_TRUE(ExclusiveTimes({}).empty());
  const std::vector<double> self =
      ExclusiveTimes({{1, 0, 0, 10}, {2, 1, 5, 5}});
  EXPECT_DOUBLE_EQ(self[0], 10);
  EXPECT_DOUBLE_EQ(self[1], 0);
}

TEST(NearestRank, P90KeepsTenSamplesBeyondFromOneHundred) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  const Percentile p90 = NearestRank(v, 0.9);
  EXPECT_DOUBLE_EQ(p90.value, 90);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_EQ(NearestRank(std::vector<double>(99, 1.0), 0.9).beyond, 9u);
  // A block of 128 queries, e2e_serve's block size, keeps 12.
  EXPECT_EQ(NearestRank(std::vector<double>(128, 1.0), 0.9).beyond, 12u);
}

TEST(NearestRank, MedianAndEdges) {
  EXPECT_DOUBLE_EQ(NearestRank({3, 1, 2}, 0.5).value, 2);
  EXPECT_DOUBLE_EQ(NearestRank({5}, 0.9).value, 5);
  EXPECT_EQ(NearestRank({}, 0.5).samples, 0u);
}

storage::Table MakeTable(
    const std::vector<std::pair<int64_t, std::string>>& rows) {
  storage::Table t("t", storage::Schema({{"id", storage::DataType::kInt64},
                                         {"s", storage::DataType::kString}}));
  for (const auto& [id, s] : rows) {
    EXPECT_TRUE(t.AppendRow({storage::Value(id), storage::Value(s)}).ok());
  }
  return t;
}

TEST(Fingerprint, IgnoresRowOrderButNotContentOrMultiplicity) {
  const uint64_t base = OrderInsensitiveFingerprint(
      MakeTable({{1, "a"}, {2, "b"}, {3, "c"}}));
  EXPECT_EQ(base, OrderInsensitiveFingerprint(
                      MakeTable({{3, "c"}, {1, "a"}, {2, "b"}})));
  EXPECT_NE(base, OrderInsensitiveFingerprint(
                      MakeTable({{1, "a"}, {2, "b"}, {3, "d"}})));
  EXPECT_NE(base, OrderInsensitiveFingerprint(
                      MakeTable({{1, "a"}, {2, "b"}, {3, "c"}, {3, "c"}})));
  EXPECT_NE(OrderInsensitiveFingerprint(MakeTable({{1, "a"}, {1, "a"}})),
            OrderInsensitiveFingerprint(MakeTable({{2, "b"}, {2, "b"}})));
}

TEST(TenantStream, SameSeedSameStream) {
  for (int t = 0; t < 4; ++t) {
    for (uint64_t round = 0; round < 5; ++round) {
      EXPECT_EQ(TenantStream(7, t, round), TenantStream(7, t, round));
    }
  }
}

TEST(TenantStream, OwnsTwoAnalystsInVersionOrder) {
  for (int t = 0; t < 4; ++t) {
    const auto stream = TenantStream(11, t, 3);
    ASSERT_EQ(stream.size(), 8u);
    int last[9] = {};
    for (const auto& [a, v] : stream) {
      EXPECT_TRUE(a == t + 1 || a == t + 5);
      EXPECT_EQ(v, last[a] + 1);
      last[a] = v;
    }
  }
}

TEST(TenantStream, SeedChangesTheOrder) {
  std::set<std::vector<std::pair<int, int>>> seen;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    seen.insert(TenantStream(seed, 0, 0));
  }
  EXPECT_GT(seen.size(), 5u);
  std::set<std::vector<std::pair<int, int>>> rounds;
  for (uint64_t round = 0; round < 20; ++round) {
    rounds.insert(TenantStream(1, 0, round));
  }
  EXPECT_GT(rounds.size(), 5u);
}

}  // namespace
}  // namespace opd::perfbench
