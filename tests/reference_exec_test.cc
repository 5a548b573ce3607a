// Hand-computed cases for the reference interpreter (tests/reference_exec.h),
// so an oracle bug cannot hide an engine bug: every expected row below is
// worked out by hand from the semantics stated in reference_exec.h, and both
// the reference and the engine must produce exactly those rows.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "reference_exec.h"
#include "session/session.h"
#include "storage/table.h"
#include "udf/builtin_udfs.h"

namespace opd {
namespace {

using reference::Rows;
using storage::DataType;
using storage::Row;
using storage::Value;

Value I(int64_t v) { return Value(v); }
Value S(const char* v) { return Value(std::string(v)); }
Value D(double v) { return Value(v); }
const Value kNull = Value::Null();

storage::TablePtr MakeTable(const std::string& name, storage::Schema schema,
                            const Rows& rows) {
  auto t = std::make_shared<storage::Table>(name, std::move(schema));
  for (const Row& r : rows) EXPECT_TRUE(t->AppendRow(r).ok());
  return t;
}

// Registers `tables`, then checks that both the reference interpreter and
// the engine compute `expected` for `oql`.
void ExpectBoth(const std::vector<storage::TablePtr>& tables,
                const std::string& oql, const Rows& expected) {
  SessionOptions options;
  options.engine.num_threads = 2;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(udf::RegisterBuiltinUdfs(&(*session)->udfs()).ok());
  for (const auto& t : tables) {
    ASSERT_TRUE((*session)->RegisterTable(t, {t->schema().columns()[0].name})
                    .ok());
  }
  auto ref = reference::EvaluateOql(**session, oql);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_TRUE(reference::SameRows(expected, *ref)) << "reference";

  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto run = (*session)->Run(oql, no_rewrite);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(reference::SameRows(expected, run->table->rows()))
      << "engine";
}

const storage::Schema kLeft({{"lk", DataType::kInt64},
                             {"a", DataType::kString}});
const storage::Schema kRight({{"rk", DataType::kInt64},
                              {"b", DataType::kString}});
const char* kJoin = "l = scan L; r = scan R; q = join l r on lk = rk;";

// Key 1 appears twice on the left and three times on the right: 2 x 3 = 6
// output rows; key 2 matches once; keys 3 and 4 have no partner.
TEST(ReferenceExecTest, JoinMultiplicityWithDuplicateKeysOnBothSides) {
  auto left = MakeTable("L", kLeft,
                        {{I(1), S("l1")}, {I(1), S("l2")}, {I(2), S("l3")},
                         {I(3), S("l4")}});
  auto right = MakeTable("R", kRight,
                         {{I(1), S("r1")}, {I(1), S("r2")}, {I(1), S("r3")},
                          {I(2), S("r4")}, {I(4), S("r5")}});
  ExpectBoth({left, right}, kJoin,
             {{I(1), S("l1"), S("r1")}, {I(1), S("l1"), S("r2")},
              {I(1), S("l1"), S("r3")}, {I(1), S("l2"), S("r1")},
              {I(1), S("l2"), S("r2")}, {I(1), S("l2"), S("r3")},
              {I(2), S("l3"), S("r4")}});
}

// Join keys compare by Value equality, where null == null: both null-keyed
// left rows match the null-keyed right row.
TEST(ReferenceExecTest, NullJoinKeysMatchEachOther) {
  auto left = MakeTable("L", kLeft,
                        {{kNull, S("l1")}, {I(1), S("l2")}, {kNull, S("l3")}});
  auto right = MakeTable("R", kRight,
                         {{kNull, S("r1")}, {I(1), S("r2")}, {I(2), S("r3")}});
  ExpectBoth({left, right}, kJoin,
             {{kNull, S("l1"), S("r1")},
              {kNull, S("l3"), S("r1")},
              {I(1), S("l2"), S("r2")}});
}

// Group 1 = {4, null, 8}: count 3, avg (4 + 0 + 8) / 3 = 4, min null (null
// sorts first), max 8. Group 2 = {null}: avg 0 / 1, min = max = null.
// Group 3 = {5}.
TEST(ReferenceExecTest, AvgMinMaxOverGroupWithNulls) {
  auto g = MakeTable(
      "G", storage::Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}),
      {{I(1), I(4)}, {I(2), kNull}, {I(1), kNull}, {I(3), I(5)}, {I(1), I(8)}});
  ExpectBoth({g},
             "q = scan G | groupby k count(*) as n, avg(v) as a, "
             "min(v) as lo, max(v) as hi;",
             {{I(1), I(3), D(4.0), kNull, I(8)},
              {I(2), I(1), D(0.0), kNull, kNull},
              {I(3), I(1), D(5.0), I(5), I(5)}});
}

// UDF_WORD_COUNT is map (token -> (word, 1)) then reduce by word (emit the
// group size when it exceeds min_count): a=3, b=2, c=1 and min_count 1
// drops c.
TEST(ReferenceExecTest, TwoStageMapReduceUdf) {
  auto w = MakeTable("W", storage::Schema({{"token", DataType::kString}}),
                     {{S("a")}, {S("b")}, {S("a")}, {S("c")}, {S("a")},
                      {S("b")}});
  ExpectBoth({w}, "q = scan W | udf UDF_WORD_COUNT(min_count = 1);",
             {{S("a"), I(3)}, {S("b"), I(2)}});
}

}  // namespace
}  // namespace opd
