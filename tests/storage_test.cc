// Unit tests for the storage layer: values, schemas, tables, and the
// simulated DFS.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "exec/hash/hash_kernels.h"
#include "session/session.h"
#include "storage/dfs.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace opd::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).type(), DataType::kBool);
  EXPECT_EQ(Value(int64_t{42}).as_int64(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).as_double(), 3.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value(int64_t{3}) == Value(3.0));
  EXPECT_TRUE(Value(true) == Value(int64_t{1}));
  EXPECT_FALSE(Value(int64_t{3}) == Value(3.5));
}

TEST(ValueTest, NumericCrossTypeHashConsistency) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
}

TEST(ValueTest, Ordering) {
  EXPECT_TRUE(Value(int64_t{1}) < Value(int64_t{2}));
  EXPECT_TRUE(Value(1.5) < Value(int64_t{2}));
  EXPECT_TRUE(Value("a") < Value("b"));
  EXPECT_TRUE(Value::Null() < Value(int64_t{0}) ||
              Value(int64_t{0}).is_null() == false);
}

TEST(ValueTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).ToDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value(true).ToDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Value("x").ToDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Value::Null().ToDouble(), 0.0);
}

TEST(ValueTest, ByteSizeAccountsStringLength) {
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(std::string(10, 'a')).ByteSize(), 14u);
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value("abc").ToString(), "abc");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
}

TEST(SchemaTest, IndexOfAndHas) {
  Schema s({Column{"a", DataType::kInt64}, Column{"b", DataType::kString}});
  EXPECT_EQ(*s.IndexOf("b"), 1u);
  EXPECT_FALSE(s.IndexOf("c").has_value());
  EXPECT_TRUE(s.Has("a"));
}

TEST(SchemaTest, AddColumnRejectsDuplicates) {
  Schema s({Column{"a", DataType::kInt64}});
  EXPECT_TRUE(s.AddColumn(Column{"b", DataType::kDouble}).ok());
  EXPECT_EQ(s.AddColumn(Column{"a", DataType::kInt64}).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, Project) {
  Schema s({Column{"a", DataType::kInt64}, Column{"b", DataType::kString},
            Column{"c", DataType::kDouble}});
  auto p = s.Project({"c", "a"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2u);
  EXPECT_EQ(p->column(0).name, "c");
  EXPECT_FALSE(s.Project({"zzz"}).ok());
}

TEST(TableTest, AppendChecksArity) {
  Table t("t", Schema({Column{"a", DataType::kInt64}}));
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  EXPECT_FALSE(t.AppendRow({}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ByteSize(), 8u);
  EXPECT_EQ(t.rows(), std::vector<Row>{{Value(int64_t{1})}});
  // Tables built from batches check arity the same way.
  Table from = Table::FromBatches("f", t.schema(), *t.ToBatches());
  EXPECT_FALSE(from.AppendRow({Value(int64_t{1}), Value("x")}).ok());
  EXPECT_EQ(from.num_rows(), 1u);
}

TEST(TableTest, ByteSizeAndAvg) {
  Table t("t", Schema({Column{"a", DataType::kInt64},
                       Column{"s", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value("xx")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value("yyyy")}).ok());
  EXPECT_EQ(t.ByteSize(), 8u + 6u + 8u + 8u);
  EXPECT_DOUBLE_EQ(t.AvgRowBytes(), 15.0);
}

TEST(TableTest, GetByName) {
  Table t("t", Schema({Column{"a", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{9})}).ok());
  auto v = t.Get(0, "a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int64(), 9);
  EXPECT_FALSE(t.Get(1, "a").ok());
  EXPECT_FALSE(t.Get(0, "b").ok());
}

// --- The Table contract ----------------------------------------------------

Schema MixedSchema() {
  return Schema({Column{"id", DataType::kInt64},
                 Column{"name", DataType::kString},
                 Column{"score", DataType::kDouble},
                 Column{"mixed", DataType::kInt64}});
}

// Nulls in every column, strings in every row; `mixed` is declared int64
// but holds strings too (the variant lane). Row i's values depend on
// `salt`, so different salts intern strings the first table never saw.
std::vector<Row> MixedRows(size_t n, const std::string& salt = "") {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = static_cast<int64_t>(i);
    rows.push_back(
        {i % 19 == 4 ? Value::Null() : Value(k),
         i % 11 == 3 ? Value::Null()
                     : Value(salt + "user" + std::to_string(i % 37)),
         i % 7 == 2 ? Value::Null() : Value(static_cast<double>(i % 13) * 0.5),
         i % 6 == 0   ? Value("s" + std::to_string(i % 4))
         : i % 9 == 1 ? Value::Null()
                      : Value(k % 17)});
  }
  return rows;
}

Table Build(const std::vector<Row>& rows) {
  Table t("mixed", MixedSchema());
  for (const Row& r : rows) EXPECT_TRUE(t.AppendRow(r).ok());
  return t;
}

size_t RowsByteSize(const std::vector<Row>& rows) {
  size_t total = 0;
  for (const Row& r : rows) total += RowByteSize(r);
  return total;
}

// Every batch's rows, read without the Table API.
std::vector<Row> SnapshotRows(const std::vector<RowBatch>& batches) {
  std::vector<Row> rows;
  for (const RowBatch& b : batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) rows.push_back(b.RowAt(r));
  }
  return rows;
}

// rows(), row(i), Get and ByteSize all give back exactly `want`.
void ExpectTableHolds(const Table& t, const std::vector<Row>& want) {
  ASSERT_EQ(t.num_rows(), want.size());
  EXPECT_EQ(t.ByteSize(), RowsByteSize(want));
  const std::vector<Row> rows = t.rows();
  ASSERT_EQ(rows.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const Row row = t.row(i);
    ASSERT_EQ(rows[i].size(), want[i].size());
    ASSERT_EQ(row.size(), want[i].size());
    for (size_t c = 0; c < want[i].size(); ++c) {
      SCOPED_TRACE("row " + std::to_string(i) + " col " + std::to_string(c));
      EXPECT_EQ(rows[i][c].type(), want[i][c].type());
      EXPECT_EQ(rows[i][c], want[i][c]);
      EXPECT_EQ(row[c].type(), want[i][c].type());
      EXPECT_EQ(row[c], want[i][c]);
      auto cell = t.Get(i, t.schema().column(c).name);
      ASSERT_TRUE(cell.ok());
      EXPECT_EQ(cell->type(), want[i][c].type());
      EXPECT_EQ(*cell, want[i][c]);
    }
  }
}

TEST(TableTest, AppendRowAndFromBatchesAgreeCellForCell) {
  for (size_t n : {1u, 1023u, 1024u, 1025u, 2500u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<Row> want = MixedRows(n);
    const Table built = Build(want);
    const auto batches = built.ToBatches();
    EXPECT_EQ(batches->size(), (n + RowBatch::kDefaultRows - 1) /
                                   RowBatch::kDefaultRows);
    EXPECT_TRUE(std::any_of(batches->begin(), batches->end(),
                            [](const RowBatch& b) {
                              return !b.column(3).is_native();
                            }));
    ExpectTableHolds(built, want);
    ExpectTableHolds(Table::FromBatches("same", built.schema(), *batches),
                     want);
    // Per-batch dictionaries, 7 rows per batch, an empty batch first.
    std::vector<RowBatch> small{RowBatch::FromRows(built.schema(), want, 0, 0)};
    for (size_t b = 0; b < n; b += 7) {
      small.push_back(RowBatch::FromRows(built.schema(), want, b,
                                         std::min(b + 7, n)));
    }
    ExpectTableHolds(Table::FromBatches("small", built.schema(), small), want);
  }
}

TEST(TableTest, AppendRowStringColumnSharesOneDictionary) {
  const Table t = Build(MixedRows(3000));
  const auto batches = t.ToBatches();
  ASSERT_EQ(batches->size(), 3u);
  ASSERT_NE((*batches)[0].column(1).dict(), nullptr);
  for (const RowBatch& b : *batches) {
    EXPECT_EQ(b.column(1).dict(), (*batches)[0].column(1).dict());
  }
  // So a shuffle keyed on the column encodes keys as dictionary codes.
  const std::vector<size_t> cols{1};
  const auto codecs = exec::hash::PlanKeyCodecs({{batches.get(), &cols}});
  ASSERT_EQ(codecs.size(), 1u);
  EXPECT_EQ(codecs[0].modes[0], exec::hash::KeyColMode::kDictCode);
}

TEST(TableTest, CopyThenAppendLeavesOriginalUnchanged) {
  const std::vector<Row> base = MixedRows(1500);
  const std::vector<Row> extra = MixedRows(700, "new-");
  Table original = Build(base);
  const auto before = original.ToBatches();
  const size_t dict_entries = before->back().column(1).dict_size();

  Table copy = original;
  for (const Row& r : extra) ASSERT_TRUE(copy.AppendRow(r).ok());
  std::vector<Row> both = base;
  both.insert(both.end(), extra.begin(), extra.end());
  ExpectTableHolds(copy, both);
  ExpectTableHolds(original, base);
  EXPECT_EQ(original.ToBatches(), before);
  EXPECT_EQ(before->back().num_rows(), base.size() - RowBatch::kDefaultRows);
  // The copy's new strings went into dictionaries of its own.
  EXPECT_EQ(before->back().column(1).dict_size(), dict_entries);

  // Appending to the original now leaves the copy unchanged as well.
  Table copy_before_append = copy;
  for (const Row& r : extra) ASSERT_TRUE(original.AppendRow(r).ok());
  ExpectTableHolds(original, both);
  ExpectTableHolds(copy, both);
  EXPECT_EQ(copy.ToBatches(), copy_before_append.ToBatches());
}

TEST(TableTest, ToBatchesSnapshotUnchangedByAppend) {
  const std::vector<Row> base = MixedRows(1500);
  Table t = Build(base);
  const auto snapshot = t.ToBatches();
  std::vector<size_t> sizes, dict_sizes;
  for (const RowBatch& b : *snapshot) {
    sizes.push_back(b.num_rows());
    dict_sizes.push_back(b.column(1).dict_size());
  }
  const std::vector<Row> extra = MixedRows(600, "later-");
  for (const Row& r : extra) ASSERT_TRUE(t.AppendRow(r).ok());

  EXPECT_EQ(SnapshotRows(*snapshot), base);
  ASSERT_EQ(snapshot->size(), sizes.size());
  for (size_t b = 0; b < sizes.size(); ++b) {
    EXPECT_EQ((*snapshot)[b].num_rows(), sizes[b]);
    EXPECT_EQ((*snapshot)[b].column(1).dict_size(), dict_sizes[b]);
  }
  std::vector<Row> both = base;
  both.insert(both.end(), extra.begin(), extra.end());
  ExpectTableHolds(t, both);
  EXPECT_EQ(SnapshotRows(*t.ToBatches()), both);
}

TEST(TableTest, EmptyTableHasZeroBytesAndARunnableLayout) {
  EXPECT_EQ(Table().ByteSize(), 0u);
  EXPECT_EQ(Table().num_rows(), 0u);
  auto t = std::make_shared<Table>("EMPTY", MixedSchema());
  EXPECT_EQ(t->ByteSize(), 0u);
  EXPECT_DOUBLE_EQ(t->AvgRowBytes(), 0.0);
  EXPECT_TRUE(t->rows().empty());
  const auto batches = t->ToBatches();
  ASSERT_EQ(batches->size(), 1u);
  EXPECT_EQ((*batches)[0].num_rows(), 0u);
  ASSERT_EQ((*batches)[0].num_columns(), MixedSchema().num_columns());

  // Every operator kind runs over it.
  auto session = Session::Create(SessionOptions{});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->RegisterTable(t, {"id"}).ok());
  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  auto run = (*session)->Run(
      "a = scan EMPTY | filter score > 1.0 | project id, name;"
      "b = scan EMPTY | groupby name count(*) as n;"
      "r = join a b on name = name;",
      no_rewrite);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->table->num_rows(), 0u);
  EXPECT_EQ(run->table->ByteSize(), 0u);
}

// Readers on a sealed table race an append to a copy of it (run under
// ThreadSanitizer by scripts/check.sh).
TEST(TableConcurrency, ReadersOfASealedTableRaceAnAppendToItsCopy) {
  const std::vector<Row> base = MixedRows(2500);
  const Table sealed = Build(base);
  const size_t bytes = sealed.ByteSize();
  const std::vector<Row> extra = MixedRows(3000, "copy-");
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      for (int pass = 0; pass < 3; ++pass) {
        size_t rows = 0;
        for (const RowBatch& b : *sealed.ToBatches()) rows += b.num_rows();
        if (rows != base.size() || sealed.ByteSize() != bytes) ++mismatches;
        for (size_t i = static_cast<size_t>(t); i < base.size(); i += 97) {
          if (sealed.row(i) != base[i]) ++mismatches;
          auto cell = sealed.Get(i, "name");
          if (!cell.ok() || !(*cell == base[i][1])) ++mismatches;
        }
        if (sealed.rows() != base) ++mismatches;
      }
    });
  }
  Table copy = sealed;
  std::thread writer([&] {
    for (const Row& r : extra) {
      if (!copy.AppendRow(r).ok()) ++mismatches;
    }
  });
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(copy.num_rows(), base.size() + extra.size());
  ExpectTableHolds(sealed, base);
}

class DfsTest : public ::testing::Test {
 protected:
  TablePtr MakeTable(const std::string& name, int rows) {
    auto t = std::make_shared<Table>(
        name, Schema({Column{"x", DataType::kInt64}}));
    for (int i = 0; i < rows; ++i) {
      (void)const_cast<Table&>(*t).AppendRow({Value(int64_t{i})});
    }
    return t;
  }
};

TEST_F(DfsTest, WriteReadDelete) {
  Dfs dfs;
  auto t = MakeTable("t", 10);
  ASSERT_TRUE(dfs.Write("a/b", t).ok());
  EXPECT_TRUE(dfs.Exists("a/b"));
  auto r = dfs.Read("a/b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 10u);
  EXPECT_TRUE(dfs.Delete("a/b").ok());
  EXPECT_FALSE(dfs.Exists("a/b"));
  EXPECT_FALSE(dfs.Read("a/b").ok());
}

TEST_F(DfsTest, DuplicateWriteFails) {
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("p", MakeTable("t", 1)).ok());
  EXPECT_EQ(dfs.Write("p", MakeTable("t", 1)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DfsTest, MetricsAccounting) {
  Dfs dfs;
  auto t = MakeTable("t", 100);
  const uint64_t size = t->ByteSize();
  ASSERT_TRUE(dfs.Write("p", t).ok());
  EXPECT_EQ(dfs.metrics().bytes_written, size);
  EXPECT_EQ(dfs.used_bytes(), size);
  ASSERT_TRUE(dfs.Read("p").ok());
  ASSERT_TRUE(dfs.Read("p").ok());
  EXPECT_EQ(dfs.metrics().bytes_read, 2 * size);
}

TEST_F(DfsTest, CapacityEnforced) {
  auto t = MakeTable("t", 100);  // 800 bytes
  Dfs dfs(t->ByteSize() + 10);
  ASSERT_TRUE(dfs.Write("one", t).ok());
  EXPECT_EQ(dfs.Write("two", MakeTable("t", 100)).code(),
            StatusCode::kOutOfRange);
  // Deleting frees space.
  ASSERT_TRUE(dfs.Delete("one").ok());
  EXPECT_TRUE(dfs.Write("two", MakeTable("t", 100)).ok());
}

TEST_F(DfsTest, DeletePrefix) {
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("views/a", MakeTable("t", 1)).ok());
  ASSERT_TRUE(dfs.Write("views/b", MakeTable("t", 1)).ok());
  ASSERT_TRUE(dfs.Write("base/c", MakeTable("t", 1)).ok());
  EXPECT_EQ(dfs.DeletePrefix("views/"), 2u);
  EXPECT_TRUE(dfs.Exists("base/c"));
  EXPECT_EQ(dfs.ListPaths().size(), 1u);
}

TEST_F(DfsTest, PeekDoesNotMeter) {
  Dfs dfs;
  ASSERT_TRUE(dfs.Write("p", MakeTable("t", 5)).ok());
  ASSERT_TRUE(dfs.Peek("p").ok());
  EXPECT_EQ(dfs.metrics().bytes_read, 0u);
}

}  // namespace
}  // namespace opd::storage
