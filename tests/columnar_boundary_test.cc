// The columnar/row boundary: view statistics are sampled column-wise from
// batches, and UDF local functions read and build batches, checked against
// the reference interpreter's per-row bodies. Each suite checks one side against a
// row-based oracle, over tables built with AppendRow and with FromBatches
// in several batch layouts:
//  - StatsIdentity: StatsCollector / ComputeExactStats equal the
//    pre-columnar std::set-over-rows sampler;
//  - UdfBatchBoundary: map-only, fused-map and leading-reduce UDFs emit the
//    reference interpreter's rows, identically for every batch layout;
//  - ServingNoRowCache: the 32-query workload through opd::Server publishes
//    oracle-identical view stats;
//  - OpaqueFilterBoundary: an opaque predicate reads batch cells and
//    matches the reference interpreter.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/stats_collector.h"
#include "exec/udf_exec.h"
#include "oql/printer.h"
#include "reference_exec.h"
#include "reference_udfs.h"
#include "server/server.h"
#include "storage/row_batch.h"
#include "storage/table.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

namespace opd {
namespace {

using storage::Column;
using storage::DataType;
using storage::Row;
using storage::RowBatch;
using storage::Schema;
using storage::Table;
using storage::Value;

// The pre-columnar StatsCollector::Collect, kept as the oracle: a seeded
// Bernoulli sample of row pointers, one std::set of cell hashes per column.
catalog::TableStats ReferenceStats(const std::vector<Row>& rows,
                                   const Schema& schema, double fraction,
                                   uint64_t seed) {
  catalog::TableStats stats;
  const double n = static_cast<double>(rows.size());
  size_t bytes = 0;
  for (const Row& r : rows) bytes += storage::RowByteSize(r);
  stats.rows = n;
  stats.avg_row_bytes = rows.empty() ? 0.0 : static_cast<double>(bytes) / n;
  if (rows.empty()) return stats;

  Rng rng(seed ^ rows.size());
  std::vector<const Row*> sample;
  for (const Row& r : rows) {
    if (rng.Bernoulli(fraction)) sample.push_back(&r);
  }
  if (sample.empty()) sample.push_back(&rows[0]);
  const double sn = static_cast<double>(sample.size());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    std::set<uint64_t> hashes;
    double width = 0;
    for (const Row* r : sample) {
      hashes.insert((*r)[c].Hash());
      width += static_cast<double>((*r)[c].ByteSize());
    }
    const double ds = static_cast<double>(hashes.size());
    const double est = ds >= 0.6 * sn ? ds * (n / sn) : ds;
    stats.distinct[schema.column(c).name] = std::min(est, n);
    stats.col_bytes[schema.column(c).name] = width / sn;
  }
  return stats;
}

// Exact `==` on every double.
void ExpectStatsEq(const catalog::TableStats& got,
                   const catalog::TableStats& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.avg_row_bytes, want.avg_row_bytes);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.col_bytes, want.col_bytes);
}

// Same schema, and the same cells of the same types in the same order.
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().num_columns(), want.schema().num_columns());
  for (size_t c = 0; c < want.schema().num_columns(); ++c) {
    EXPECT_EQ(got.schema().column(c).name, want.schema().column(c).name);
    EXPECT_EQ(got.schema().column(c).type, want.schema().column(c).type);
  }
  const std::vector<Row> a = got.rows(), b = want.rows();
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    for (size_t c = 0; c < a[r].size(); ++c) {
      EXPECT_EQ(a[r][c].type(), b[r][c].type()) << "row " << r;
      EXPECT_EQ(a[r][c], b[r][c]) << "row " << r << " col " << c;
    }
  }
}

Schema MixedSchema() {
  return Schema({Column{"id", DataType::kInt64},
                 Column{"name", DataType::kString},
                 Column{"score", DataType::kDouble},
                 Column{"flag", DataType::kBool},
                 Column{"mixed", DataType::kInt64}});
}

// Built with AppendRow. Nulls in every column; `mixed` is declared int64
// but holds strings too, which demotes its batch columns to the variant
// lane.
Table MixedRowTable(size_t n) {
  Table t("mixed", MixedSchema());
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = static_cast<int64_t>(i);
    Row row;
    row.push_back(i % 19 == 4 ? Value::Null() : Value(k));
    row.push_back(i % 11 == 3 ? Value::Null()
                              : Value("user" + std::to_string(i % 37)));
    row.push_back(i % 7 == 2 ? Value::Null()
                             : Value(static_cast<double>(i % 13) * 0.5));
    row.push_back(i % 5 == 1 ? Value::Null() : Value(i % 3 == 0));
    row.push_back(i % 6 == 0   ? Value("s" + std::to_string(i % 4))
                  : i % 9 == 1 ? Value::Null()
                               : Value(k % 17));
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

// A FromBatches twin with a table-wide shared dictionary per string column
// (the AppendRow table's own batches).
Table SharedDictTwin(const Table& rows) {
  return Table::FromBatches("shared", rows.schema(), *rows.ToBatches());
}

// A FromBatches twin with per-batch dictionaries, `batch_rows` rows per
// batch, and an empty first batch.
Table SmallBatchTwin(const Table& rows, size_t batch_rows) {
  const std::vector<Row> all = rows.rows();
  std::vector<RowBatch> batches;
  batches.push_back(RowBatch::FromRows(rows.schema(), all, 0, 0));
  for (size_t b = 0; b < all.size(); b += batch_rows) {
    batches.push_back(RowBatch::FromRows(
        rows.schema(), all, b, std::min(b + batch_rows, all.size())));
  }
  return Table::FromBatches("small", rows.schema(), std::move(batches));
}

// --- StatsIdentity -----------------------------------------------------------

TEST(StatsIdentity, SampledStatsMatchRowOracleOnEveryRepresentation) {
  for (size_t n : {0u, 1u, 2u, 37u, 1500u, 3000u}) {
    const Table rows = MixedRowTable(n);
    const std::vector<Table> twins = {SharedDictTwin(rows),
                                      SmallBatchTwin(rows, 7),
                                      SmallBatchTwin(rows, 1024)};
    for (double fraction : {0.05, 0.3, 1.0}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " fraction=" + std::to_string(fraction));
      const exec::StatsCollector collector(fraction, 42);
      const catalog::TableStats want =
          ReferenceStats(rows.rows(), rows.schema(), fraction, 42);
      ExpectStatsEq(collector.Collect(rows), want);
      for (const Table& twin : twins) {
        ExpectStatsEq(collector.Collect(twin), want);
      }
    }
  }
}

TEST(StatsIdentity, DataCoversVariantLaneAndSharedDictionaries) {
  const Table rows = MixedRowTable(3000);
  const Table shared = SharedDictTwin(rows);
  const auto batches = shared.ToBatches();
  ASSERT_EQ(batches->size(), 3u);
  EXPECT_FALSE((*batches)[0].column(4).is_native());  // variant lane
  EXPECT_GT((*batches)[0].column(1).null_count(), 0u);
  // One table-wide dictionary shared by every batch.
  EXPECT_EQ((*batches)[0].column(1).dict(), (*batches)[2].column(1).dict());
  const Table small = SmallBatchTwin(rows, 7);
  const auto small_batches = small.ToBatches();
  EXPECT_EQ((*small_batches)[0].num_rows(), 0u);  // empty first batch
  // Per-batch dictionaries differ from batch to batch.
  EXPECT_NE((*small_batches)[1].column(1).dict(),
            (*small_batches)[2].column(1).dict());
}

TEST(StatsIdentity, EmptySampleFallsBackToFirstRow) {
  constexpr size_t kRows = 4;
  constexpr double kFraction = 0.05;
  constexpr uint64_t kSeed = 42;
  // The seeded draws for this row count all miss: the sample is empty.
  Rng rng(kSeed ^ kRows);
  for (size_t r = 0; r < kRows; ++r) ASSERT_FALSE(rng.Bernoulli(kFraction));

  const Table rows = MixedRowTable(kRows);
  const exec::StatsCollector collector(kFraction, kSeed);
  const catalog::TableStats want =
      ReferenceStats(rows.rows(), rows.schema(), kFraction, kSeed);
  // One sampled row: every column sketches exactly one value, scaled up.
  EXPECT_EQ(want.distinct.at("id"), static_cast<double>(kRows));
  ExpectStatsEq(collector.Collect(rows), want);
  ExpectStatsEq(collector.Collect(SmallBatchTwin(rows, 3)), want);
  ExpectStatsEq(collector.Collect(SharedDictTwin(rows)), want);
}

TEST(StatsIdentity, ZeroRowTables) {
  const Schema schema = MixedSchema();
  const exec::StatsCollector collector;
  const catalog::TableStats want = ReferenceStats({}, schema, 0.05, 42);
  ExpectStatsEq(collector.Collect(Table("empty", schema)), want);
  ExpectStatsEq(collector.Collect(Table::FromBatches("none", schema, {})),
                want);
  ExpectStatsEq(collector.Collect(SmallBatchTwin(Table("empty", schema), 7)),
                want);
}

TEST(StatsIdentity, ExactStatsMatchAcrossRepresentations) {
  for (size_t n : {0u, 1u, 37u, 3000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Table rows = MixedRowTable(n);
    const catalog::TableStats want = catalog::ComputeExactStats(rows);
    if (n > 0) {
      // Sampling every row with no scale-up is the exact scan.
      ExpectStatsEq(want, ReferenceStats(rows.rows(), rows.schema(), 1.0, 0));
    }
    ExpectStatsEq(catalog::ComputeExactStats(SharedDictTwin(rows)), want);
    ExpectStatsEq(catalog::ComputeExactStats(SmallBatchTwin(rows, 7)), want);
  }
}

// --- UdfBatchBoundary --------------------------------------------------------

udf::LocalFunction NameLengthMap() {
  udf::LocalFunction lf;
  lf.name = "boundary-name-length";
  lf.kind = udf::LfKind::kMap;
  lf.op_types = udf::kOpAttrs | udf::kOpFilter;
  lf.reads = {"id", "name"};
  lf.passed = {"*"};
  lf.out_schema = [](const Schema& in, const udf::Params&) -> Result<Schema> {
    std::vector<Column> cols = in.columns();
    cols.push_back(Column{"name_len", DataType::kInt64});
    return Schema(std::move(cols));
  };
  lf.map_fn = [](const RowBatch& in, const udf::LfContext& ctx,
                 udf::BatchBuilder* out) {
    const storage::ColumnVector& id = in.column(ctx.cols[0]);
    const storage::ColumnVector& name = in.column(ctx.cols[1]);
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      if (id.IsNull(i)) continue;
      out->Keep(i);
      out->AppendInt64(in.num_columns(),
                       name.IsNull(i)
                           ? 0
                           : static_cast<int64_t>(name.StringAt(i).size()));
    }
  };
  return lf;
}

reference::RowBody NameLengthRows() {
  reference::RowBody body;
  body.map = [](const Row& row, const Schema& in, const udf::Params&,
                reference::Rows* out) {
    if (reference::Cell(row, in, "id").is_null()) return;
    const Value& name = reference::Cell(row, in, "name");
    Row o = row;
    o.push_back(Value(static_cast<int64_t>(
        name.is_null() ? 0 : name.as_string().size())));
    out->push_back(std::move(o));
  };
  return body;
}

udf::LocalFunction EvenIdDuplicateMap() {
  udf::LocalFunction lf;
  lf.name = "boundary-even-duplicate";
  lf.kind = udf::LfKind::kMap;
  lf.op_types = udf::kOpAttrs;
  lf.reads = {"id"};
  lf.passed = {"*"};
  lf.out_schema = [](const Schema& in, const udf::Params&) -> Result<Schema> {
    return in;
  };
  lf.map_fn = [](const RowBatch& in, const udf::LfContext& ctx,
                 udf::BatchBuilder* out) {
    const storage::ColumnVector& id = in.column(ctx.cols[0]);
    for (uint32_t i = 0; i < in.num_rows(); ++i) {
      out->Keep(i);
      if (id.Int64At(i) % 2 == 0) out->Keep(i);
    }
  };
  return lf;
}

reference::RowBody EvenIdDuplicateRows() {
  reference::RowBody body;
  body.map = [](const Row& row, const Schema& in, const udf::Params&,
                reference::Rows* out) {
    out->push_back(row);
    if (reference::Cell(row, in, "id").as_int64() % 2 == 0) {
      out->push_back(row);
    }
  };
  return body;
}

udf::LocalFunction CountByNameReduce() {
  udf::LocalFunction lf;
  lf.name = "boundary-count-by-name";
  lf.kind = udf::LfKind::kReduce;
  lf.op_types = udf::kOpGroup;
  lf.group_keys = {"name"};
  lf.reads = {"score", "mixed"};
  lf.passed = {"name"};
  lf.out_schema = [](const Schema&, const udf::Params&) -> Result<Schema> {
    return Schema({Column{"name", DataType::kString},
                   Column{"n", DataType::kInt64},
                   Column{"score_sum", DataType::kDouble},
                   Column{"first_mixed", DataType::kInt64}});
  };
  lf.reduce_fn = [](const RowBatch& in, storage::RowRange group,
                    const udf::LfContext& ctx, udf::BatchBuilder* out) {
    const storage::ColumnVector& score = in.column(ctx.cols[0]);
    double sum = 0;
    for (size_t r = group.begin; r < group.end; ++r) sum += score.DoubleAt(r);
    out->Keep(static_cast<uint32_t>(group.begin));
    out->AppendInt64(1, static_cast<int64_t>(group.size()));
    out->AppendDouble(2, sum);
    out->AppendCell(3, in.column(ctx.cols[1]), group.begin);
  };
  return lf;
}

reference::RowBody CountByNameRows() {
  reference::RowBody body;
  body.reduce = [](const reference::Rows& group, const Schema& in,
                   const udf::Params&, reference::Rows* out) {
    double sum = 0;
    for (const Row& r : group) sum += reference::Cell(r, in, "score").ToDouble();
    out->push_back({reference::Cell(group[0], in, "name"),
                    Value(static_cast<int64_t>(group.size())), Value(sum),
                    reference::Cell(group[0], in, "mixed")});
  };
  return body;
}

// Runs `def` serially and on a pool with small map splits, over the
// AppendRow table and both FromBatches twins: every output must hold the
// reference interpreter's rows (from `bodies`, the per-row bodies of
// `def`), and the twins' outputs must equal the AppendRow input's cell for
// cell, in order.
void ExpectBoundaryIdentity(const udf::UdfDefinition& def,
                            std::vector<reference::RowBody> bodies) {
  reference::RegisterRowBodies(def.name, std::move(bodies));
  const Table rows = MixedRowTable(2500);
  auto reference_rows = reference::EvaluateUdf(def, rows, {});
  ASSERT_TRUE(reference_rows.ok()) << reference_rows.status().ToString();
  ASSERT_FALSE(reference_rows->empty());
  ThreadPool pool(4);
  for (bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pool of 4, small splits" : "serial");
    exec::TaskCtx opts;
    if (pooled) {
      opts.pool = &pool;
      opts.block_size_bytes = 4096;
    }
    Table want;
    ASSERT_TRUE(
        exec::RunLocalFunctions(def, rows, {}, &want, nullptr, opts).ok());
    EXPECT_TRUE(reference::SameRows(*reference_rows, want.rows()));
    for (const Table& twin : {SharedDictTwin(rows), SmallBatchTwin(rows, 7)}) {
      Table got;
      ASSERT_TRUE(
          exec::RunLocalFunctions(def, twin, {}, &got, nullptr, opts).ok());
      ExpectSameTable(got, want);
    }
  }
}

TEST(UdfBatchBoundary, MapOnlyUdf) {
  udf::UdfDefinition def;
  def.name = "UDF_BOUNDARY_MAP";
  def.local_functions.push_back(NameLengthMap());
  ExpectBoundaryIdentity(def, {NameLengthRows()});
}

TEST(UdfBatchBoundary, FusedMapUdf) {
  udf::UdfDefinition def;
  def.name = "UDF_BOUNDARY_FUSED";
  def.local_functions.push_back(NameLengthMap());
  def.local_functions.push_back(EvenIdDuplicateMap());
  ExpectBoundaryIdentity(def, {NameLengthRows(), EvenIdDuplicateRows()});
}

TEST(UdfBatchBoundary, LeadingReduceUdf) {
  udf::UdfDefinition def;
  def.name = "UDF_BOUNDARY_REDUCE";
  def.local_functions.push_back(CountByNameReduce());
  udf::LocalFunction tail = EvenIdDuplicateMap();
  tail.reads = {};
  tail.map_fn = [](const RowBatch& in, const udf::LfContext&,
                   udf::BatchBuilder* out) {
    for (uint32_t i = 0; i < in.num_rows(); ++i) out->Keep(i);
  };
  def.local_functions.push_back(std::move(tail));
  reference::RowBody identity;
  identity.map = [](const Row& row, const Schema&, const udf::Params&,
                    reference::Rows* out) { out->push_back(row); };
  ExpectBoundaryIdentity(def, {CountByNameRows(), identity});
}

// --- ServingNoRowCache -------------------------------------------------------

class ServingNoRowCache : public ::testing::Test {
 protected:
  static constexpr int kTenants = 4;

  void SetUp() override {
    workload::TestBedConfig config;
    config.data.n_tweets = 3000;
    config.data.n_checkins = 2000;
    config.data.n_locations = 200;
    config.data.n_users = 120;
    config.calibrate_udfs = false;  // as the serving benchmark runs
    auto bed = workload::TestBed::Create(config);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    bed_ = std::move(bed).value();
  }

  // All 32 workload queries as OQL text: tenant t runs analysts t+1 and
  // t+5, versions 1..4 in order, concurrently with the other tenants.
  // Returns how many views the executed plans scanned.
  size_t RunWorkload(bool rewrite) {
    Server& server = bed_->session().server();
    std::atomic<int> failures{0};
    std::atomic<size_t> views_used{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        ClientSession client = server.Connect("tenant" + std::to_string(t));
        RunOptions opts;
        opts.rewrite = rewrite;
        for (int a : {t + 1, t + 5}) {
          for (int v = 1; v <= workload::kNumVersions; ++v) {
            auto plan = workload::BuildQuery(a, v);
            auto oql = plan.ok() ? oql::Print(*plan)
                                 : Result<std::string>(plan.status());
            auto run = oql.ok() ? client.Run(*oql, opts)
                                : Result<RunResult>(oql.status());
            if (!run.ok()) {
              ++failures;
              continue;
            }
            views_used += run->views_used.size();
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    return views_used.load();
  }

  void ExpectPublishedStatsMatchOracle() {
    const auto views = bed_->views().All();
    ASSERT_FALSE(views.empty());
    for (const catalog::ViewDefinition* def : views) {
      SCOPED_TRACE(def->dfs_path);
      auto table = bed_->dfs().Read(def->dfs_path);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ExpectStatsEq(def->stats,
                    ReferenceStats((*table)->rows(), (*table)->schema(),
                                   exec::kStatsSampleFraction,
                                   exec::kStatsSeed));
    }
  }

  std::unique_ptr<workload::TestBed> bed_;
};

TEST_F(ServingNoRowCache, OrigMaterializesNoRowsAndPublishesOracleStats) {
  EXPECT_EQ(RunWorkload(/*rewrite=*/false), 0u);
  ExpectPublishedStatsMatchOracle();
}

TEST_F(ServingNoRowCache, EvolveMaterializesNoRowsAndPublishesOracleStats) {
  bed_->DropAllViews();
  // Rewritten plans scan views, some feeding UDFs.
  EXPECT_GT(RunWorkload(/*rewrite=*/true), 0u);
  ExpectPublishedStatsMatchOracle();
}

// The project job's output shares its input's columns, and the opaque
// filter after it evaluates the predicate on batch cells and gathers
// survivors.
TEST(OpaqueFilterBoundary, BatchPrimaryInputStaysColumnarAndMatchesReference) {
  SessionOptions options;
  options.engine.num_threads = 4;
  auto session = Session::Create(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)
                  ->udfs()
                  .RegisterPredicate(
                      "keep_row",
                      [](const std::vector<Value>& args, const udf::Params&) {
                        return args[0].as_int64() % 3 == 0 ||
                               (!args[1].is_null() &&
                                args[1].as_string() == "b");
                      })
                  .ok());
  auto t = std::make_shared<Table>(
      "OPQ", Schema({Column{"id", DataType::kInt64},
                     Column{"name", DataType::kString},
                     Column{"w", DataType::kDouble}}));
  const char* names[] = {"a", "b", "c", "d"};
  for (int64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(t->AppendRow({Value(i),
                              i % 17 == 0 ? Value::Null()
                                          : Value(std::string(names[i % 4])),
                              Value(0.5 * static_cast<double>(i))})
                    .ok());
  }
  ASSERT_TRUE((*session)->RegisterTable(t, {"id"}).ok());

  const std::string oql = "q = scan OPQ | project id, name | filter keep_row(id, name);";
  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto run = (*session)->Run(oql, no_rewrite);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->jobs.size(), 2u);
  EXPECT_GT(run->table->num_rows(), 0u);
  EXPECT_LT(run->table->num_rows(), 3000u);

  auto want = reference::EvaluateOql(**session, oql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(reference::SameRows(*want, run->table->rows()));
}

}  // namespace
}  // namespace opd
