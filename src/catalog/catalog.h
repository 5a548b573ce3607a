// Catalog of base relations: schemas, natural keys, base AFK annotations,
// DFS locations, and data statistics.

#ifndef OPD_CATALOG_CATALOG_H_
#define OPD_CATALOG_CATALOG_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "afk/afk.h"
#include "common/status.h"
#include "storage/dfs.h"
#include "storage/schema.h"

namespace opd::catalog {

/// Optimizer-facing statistics for a table or view.
struct TableStats {
  double rows = 0;
  double avg_row_bytes = 0;
  /// Estimated distinct-value count per column name.
  std::map<std::string, double> distinct;
  /// Average serialized width per column name, in bytes.
  std::map<std::string, double> col_bytes;

  double TotalBytes() const { return rows * avg_row_bytes; }
  /// Distinct count for `column`, defaulting to `fallback` when unknown.
  double DistinctOr(const std::string& column, double fallback) const;
  /// Column width for `column`, defaulting to `fallback` when unknown.
  double ColBytesOr(const std::string& column, double fallback) const;
};

/// One column's distinct-value sketch over a set of rows.
struct ColumnSketch {
  uint64_t distinct = 0;  ///< distinct cell hashes (Value::Hash)
  uint64_t bytes = 0;     ///< summed cell widths (Value::ByteSize)
};

/// Sketches every column of `table` over the rows `sample` (ascending row
/// indices), or over every row when `sample` is null, reading column-wise
/// from the table's batches (ColumnVector::HashAt and CellByteSize equal
/// Value::Hash and ByteSize by definition). Distincts come from sort +
/// unique over a column's hash vector.
std::vector<ColumnSketch> SketchColumns(const storage::Table& table,
                                        const std::vector<size_t>* sample);

/// Computes exact statistics by scanning a table (used for base tables; views
/// use the sampling StatsCollector).
TableStats ComputeExactStats(const storage::Table& table);

/// A registered base relation.
struct BaseTableEntry {
  std::string name;
  storage::Schema schema;
  /// Attribute objects aligned 1:1 with schema columns.
  std::vector<afk::Attribute> attrs;
  afk::Afk afk;
  std::string dfs_path;
  TableStats stats;
};

/// \brief Name -> base relation registry. Base data lives in the Dfs under
/// "base/<name>"; registering writes it there.
///
/// Thread-safe: the registry is shared by every tenant of an opd::Server.
/// Entries are never removed, so the pointers Find hands out stay valid for
/// the catalog's lifetime even while other tenants register tables.
class Catalog {
 public:
  /// Registers `table` as a base relation keyed on `key_columns`, writing its
  /// data to `dfs` and computing exact statistics.
  Status RegisterBase(const storage::TablePtr& table,
                      const std::vector<std::string>& key_columns,
                      storage::Dfs* dfs);

  Result<const BaseTableEntry*> Find(const std::string& name) const;
  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, BaseTableEntry> tables_;  // guarded by mu_
};

}  // namespace opd::catalog

#endif  // OPD_CATALOG_CATALOG_H_
