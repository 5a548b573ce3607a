// Every builtin UDF's batch local functions against the reference
// interpreter's independent per-row bodies (reference_udfs.h).
//
// For each input, the engine runs serially and on a pool of 4 threads, at
// the default 64 KiB block and at a small block that splits map tasks in
// the middle of batches. Every run must emit the oracle's rows in the
// oracle's order, cell for cell with the same types (doubles bit for bit)
// and with the oracle rows' byte size, and the pooled runs must repeat the
// serial run's stage accounting. The
// inputs: the workload's TWTR / FSQ / LAND slices (and the UDF outputs the
// workload chains into other UDFs), the same tables with nulls in the
// consumed columns, with a type-demoted (variant-lane) column, with one-
// and two-row batches, and empty.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/udf_exec.h"
#include "reference_exec.h"
#include "storage/row_batch.h"
#include "storage/table.h"
#include "udf/builtin_udfs.h"
#include "workload/datagen.h"

namespace opd {
namespace {

using storage::Column;
using storage::DataType;
using storage::Row;
using storage::RowBatch;
using storage::Schema;
using storage::Table;
using storage::Value;

// Same type and same value; doubles compare bit for bit.
::testing::AssertionResult SameCell(const Value& got, const Value& want) {
  if (got.type() != want.type()) {
    return ::testing::AssertionFailure()
           << "type " << storage::DataTypeName(got.type()) << " vs "
           << storage::DataTypeName(want.type());
  }
  if (got.type() == DataType::kDouble) {
    const double a = got.as_double(), b = want.as_double();
    if (std::memcmp(&a, &b, sizeof(a)) != 0) {
      return ::testing::AssertionFailure() << a << " vs " << b;
    }
    return ::testing::AssertionSuccess();
  }
  if (!(got == want)) {
    return ::testing::AssertionFailure()
           << got.ToString() << " vs " << want.ToString();
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      ASSERT_TRUE(SameCell(got[r][c], want[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

// The zero-copy projection of `t` onto `cols`.
Table Project(const Table& t, const std::vector<std::string>& cols) {
  std::vector<size_t> idx;
  std::vector<Column> schema;
  for (const std::string& c : cols) {
    idx.push_back(*t.schema().IndexOf(c));
    schema.push_back(t.schema().column(idx.back()));
  }
  std::vector<RowBatch> batches;
  for (const RowBatch& b : *t.ToBatches()) batches.push_back(b.Project(idx));
  return Table::FromBatches(t.name(), Schema(schema), std::move(batches));
}

// `t`'s rows rebuilt with AppendRow after `edit` changed them.
template <typename Edit>
Table Rebuilt(const Table& t, Edit edit) {
  Table out(t.name(), t.schema());
  std::vector<Row> rows = t.rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    edit(r, &rows[r]);
    EXPECT_TRUE(out.AppendRow(std::move(rows[r])).ok());
  }
  return out;
}

// Nulls in every 3rd row's `cols`.
Table WithNulls(const Table& t, const std::vector<std::string>& cols) {
  std::vector<size_t> idx;
  for (const std::string& c : cols) idx.push_back(*t.schema().IndexOf(c));
  return Rebuilt(t, [&](size_t r, Row* row) {
    if (r % 3 != 1) return;
    for (size_t c : idx) (*row)[c] = Value::Null();
  });
}

// Column `col` holds `odd` (a value of another type than declared) in every
// 50th row, so its batch columns fall back to the variant lane.
Table WithVariantLane(const Table& t, const std::string& col,
                      const Value& odd) {
  const size_t c = *t.schema().IndexOf(col);
  return Rebuilt(t, [&](size_t r, Row* row) {
    if (r % 50 == 7) (*row)[c] = odd;
  });
}

// The same rows with `per_batch` rows per batch.
Table SmallBatches(const Table& t, size_t per_batch) {
  const std::vector<Row> rows = t.rows();
  std::vector<RowBatch> batches;
  for (size_t r = 0; r < rows.size(); r += per_batch) {
    batches.push_back(RowBatch::FromRows(
        t.schema(), rows, r, std::min(rows.size(), r + per_batch)));
  }
  return Table::FromBatches(t.name(), t.schema(), std::move(batches));
}

// Runs `def` over `input` serially and on 4 threads, at the default block
// and at a 1500-byte block; checks every run against the oracle.
void ExpectMatchesOracle(const udf::UdfDefinition& def, const Table& input,
                         const udf::Params& params) {
  auto want = reference::EvaluateUdf(def, input, params);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  static ThreadPool pool(4);
  for (uint64_t block : {uint64_t{64 * 1024}, uint64_t{1500}}) {
    exec::TaskCtx serial_ctx;
    serial_ctx.block_size_bytes = block;
    exec::TaskCtx pooled_ctx = serial_ctx;
    pooled_ctx.pool = &pool;
    Table serial, pooled;
    std::vector<exec::LfStageRun> serial_stages, pooled_stages;
    SCOPED_TRACE("block " + std::to_string(block));
    ASSERT_TRUE(exec::RunLocalFunctions(def, input, params, &serial,
                                        &serial_stages, serial_ctx)
                    .ok());
    ASSERT_TRUE(exec::RunLocalFunctions(def, input, params, &pooled,
                                        &pooled_stages, pooled_ctx)
                    .ok());
    ExpectSameRows(serial.rows(), *want);
    ExpectSameRows(pooled.rows(), serial.rows());
    size_t want_bytes = 0;
    for (const Row& row : *want) want_bytes += storage::RowByteSize(row);
    EXPECT_EQ(serial.ByteSize(), want_bytes);
    EXPECT_EQ(pooled.ByteSize(), want_bytes);
    ASSERT_EQ(serial_stages.size(), def.local_functions.size());
    ASSERT_EQ(pooled_stages.size(), serial_stages.size());
    for (size_t s = 0; s < serial_stages.size(); ++s) {
      EXPECT_EQ(pooled_stages[s].in_rows, serial_stages[s].in_rows);
      EXPECT_EQ(pooled_stages[s].in_bytes, serial_stages[s].in_bytes);
      EXPECT_EQ(pooled_stages[s].out_rows, serial_stages[s].out_rows);
      EXPECT_EQ(pooled_stages[s].out_bytes, serial_stages[s].out_bytes);
    }
  }
}

// One builtin UDF over one input, with the oracle-checked variants of it.
struct Case {
  udf::UdfDefinition def;
  const Table* input;
  udf::Params params;
  std::vector<std::string> consumed;  // columns nulled by the null variant
  std::string demoted;                // variant-lane column ("" = skip)
  Value odd;                          // its off-type value
};

class UdfOracle : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::DataGenConfig data;
    data.n_users = 60;
    data.n_tweets = 1500;
    data.n_checkins = 800;
    data.n_locations = 120;
    twtr_ = new Table(*workload::GenerateTwitterLog(data));
    land_ = new Table(*workload::GenerateLandmarks(data));
    const Table fsq = *workload::GenerateFoursquareLog(data);
    // FSQ check-ins with their landmark's geo string.
    std::vector<std::string> geo_of(data.n_locations + 1);
    for (const Row& r : land_->rows()) {
      if (!r[3].is_null()) geo_of[r[0].as_int64()] = r[3].as_string();
    }
    fsq_geo_ = new Table("FSQ_GEO", Schema({Column{"user_id", DataType::kInt64},
                                            Column{"location_id",
                                                   DataType::kInt64},
                                            Column{"geo", DataType::kString}}));
    for (const Row& r : fsq.rows()) {
      const auto loc = static_cast<size_t>(r[2].as_int64());
      ASSERT_TRUE(fsq_geo_
                      ->AppendRow({r[1], r[2],
                                   Value(loc < geo_of.size() ? geo_of[loc]
                                                             : "")})
                      .ok());
    }
    // Tweets with hashtags (the generated log has none).
    tags_ = new Table("TAGS", Schema({Column{"user_id", DataType::kInt64},
                                      Column{"tweet_text", DataType::kString}}));
    for (int64_t i = 0; i < 900; ++i) {
      const std::string text = "day " + std::to_string(i) + " #Tag" +
                               std::to_string(i % 13) + " and #t_" +
                               std::to_string(i % 5) + " #";
      ASSERT_TRUE(tags_->AppendRow({Value(i % 37), Value(text)}).ok());
    }
  }

  static void TearDownTestSuite() {
    delete twtr_;
    delete land_;
    delete fsq_geo_;
    delete tags_;
  }

  // The builtin cases, over the workload slices and the UDF outputs the
  // workload feeds into other UDFs.
  std::vector<Case> Cases() {
    static const Table extract = Project(
        *twtr_, {"tweet_id", "user_id", "tweet_text", "mention_user",
                 "raw_meta"});
    static const Table text = Project(*twtr_, {"user_id", "tweet_text"});
    static const Table twtr_geo = Project(*twtr_, {"tweet_id", "user_id", "geo"});
    static const Table land_geo =
        Project(*land_, {"location_id", "category", "geo"});
    static const Table menus =
        Project(*land_, {"location_id", "category", "menu_text"});
    static const Table friends = Run(udf::MakeFriendshipStrengthUdf(), extract,
                                     {{"min_strength", Value(0.0)}});
    static const Table latlon = Run(udf::MakeExtractLatLonUdf(), twtr_geo, {});
    static const Table tokens = Run(udf::MakeTokenizeUdf(), text, {});
    const Value odd_id("u7");
    return {
        {udf::MakeClassifyWineScoreUdf(), &extract,
         {{"threshold", Value(0.2)}}, {"tweet_text"}, "user_id", odd_id},
        {udf::MakeClassifyFoodScoreUdf(), &extract, {},
         {"tweet_text"}, "user_id", odd_id},
        {udf::MakeClassifyAffluentUdf(), &extract,
         {{"min_affluence", Value(0.0)}}, {"tweet_text"}, "user_id", odd_id},
        {udf::MakeFriendshipStrengthUdf(), &extract,
         {{"min_strength", Value(0.0)}}, {"user_id", "mention_user"}, "", {}},
        {udf::MakeNetworkInfluenceUdf(), &friends, {},
         {"strength"}, "strength", Value(int64_t{2})},
        {udf::MakeExtractLatLonUdf(), &twtr_geo, {}, {"geo"}, "tweet_id",
         Value("t")},
        {udf::MakeExtractLatLonUdf(), fsq_geo_, {}, {"geo"}, "user_id",
         odd_id},
        {udf::MakeExtractLatLonUdf(), &land_geo, {}, {"geo"}, "location_id",
         Value(2.5)},
        {udf::MakeGeoTileUdf(), &latlon, {{"tile_size", Value(0.5)}},
         {"lat", "lon"}, "lat", Value(int64_t{40})},
        {udf::MakeTokenizeUdf(), &text, {}, {"tweet_text"}, "user_id",
         odd_id},
        {udf::MakeWordCountUdf(), &tokens, {{"min_count", Value(2.0)}},
         {"token"}, "token", Value(int64_t{9})},
        {udf::MakeMenuSimilarityUdf(), &menus,
         {{"ref_menu", Value(workload::ReferenceMenu())},
          {"min_sim", Value(0.05)}},
         {"menu_text"}, "location_id", Value("loc")},
        {udf::MakeParseLogUdf(), &extract, {}, {"raw_meta"}, "tweet_id",
         Value(1.5)},
        {udf::MakeHashtagTrendsUdf(), tags_, {{"min_users", Value(1.0)}},
         {"tweet_text"}, "", {}},
    };
  }

  static Table Run(const udf::UdfDefinition& def, const Table& input,
                   const udf::Params& params) {
    Table out;
    EXPECT_TRUE(exec::RunLocalFunctions(def, input, params, &out).ok());
    return out;
  }

  static Table* twtr_;
  static Table* land_;
  static Table* fsq_geo_;
  static Table* tags_;
};

Table* UdfOracle::twtr_ = nullptr;
Table* UdfOracle::land_ = nullptr;
Table* UdfOracle::fsq_geo_ = nullptr;
Table* UdfOracle::tags_ = nullptr;

TEST_F(UdfOracle, WorkloadSlices) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.def.name + " over " + c.input->name());
    ASSERT_GT(c.input->num_rows(), 0u);
    ExpectMatchesOracle(c.def, *c.input, c.params);
    EXPECT_GT(Run(c.def, *c.input, c.params).num_rows(), 0u);
  }
}

TEST_F(UdfOracle, NullsInConsumedColumns) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.def.name + " over " + c.input->name());
    ExpectMatchesOracle(c.def, WithNulls(*c.input, c.consumed), c.params);
  }
}

TEST_F(UdfOracle, VariantLaneColumn) {
  for (const Case& c : Cases()) {
    if (c.demoted.empty()) continue;
    SCOPED_TRACE(c.def.name + " over " + c.input->name() + ", " + c.demoted);
    const Table demoted = WithVariantLane(*c.input, c.demoted, c.odd);
    const size_t col = *demoted.schema().IndexOf(c.demoted);
    ASSERT_FALSE((*demoted.ToBatches())[0].column(col).is_native());
    ExpectMatchesOracle(c.def, demoted, c.params);
  }
}

TEST_F(UdfOracle, EmptyTable) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.def.name);
    const Table empty("", c.input->schema());
    ExpectMatchesOracle(c.def, empty, c.params);
    Table out;
    ASSERT_TRUE(exec::RunLocalFunctions(c.def, empty, c.params, &out).ok());
    EXPECT_EQ(out.num_rows(), 0u);
  }
}

// One-row batches, and two-row batches (where a map that drops a batch's
// second row keeps a strict prefix of it).
TEST_F(UdfOracle, OneAndTwoRowBatches) {
  for (const Case& c : Cases()) {
    for (size_t per_batch : {1, 2}) {
      SCOPED_TRACE(c.def.name + " over " + c.input->name() + ", " +
                   std::to_string(per_batch) + "-row batches");
      const Table small = SmallBatches(*c.input, per_batch);
      ExpectMatchesOracle(c.def, small, c.params);
      // Batch layout never shows in the output.
      Table a, b;
      ASSERT_TRUE(exec::RunLocalFunctions(c.def, small, c.params, &a).ok());
      ASSERT_TRUE(
          exec::RunLocalFunctions(c.def, *c.input, c.params, &b).ok());
      ExpectSameRows(a.rows(), b.rows());
    }
  }
}

}  // namespace
}  // namespace opd
