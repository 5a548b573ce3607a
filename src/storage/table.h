// In-memory table: schema plus a columnar payload. The unit of data the MR
// simulator reads, shuffles, and materializes.
//
// The payload is a vector of `RowBatch`es and nothing else. `AppendRow`
// appends into an open tail batch of `RowBatch::kDefaultRows` rows whose
// string columns intern into one table-wide dictionary per column, so every
// batch of an AppendRow-built column shares one dictionary; `FromBatches`
// adopts batches built by the engine kernels. `ToBatches()` hands out the
// stored batches; `rows()` and `row(i)` build `Row`s from them on each call
// and exist for the API edges (CSV, examples, tests).
//
// A Table is a value type. Copies share the batches; appending to a table
// whose tail batch (or batch vector) is shared with a copy or with a
// `ToBatches()` snapshot first seals that batch and starts a new one with
// fresh dictionaries, so neither the other table nor the snapshot ever
// changes, and no shared column interns into a dictionary another table
// reads. Const methods only read, so a table that is no longer appended to
// may be read from any number of threads. Columns gathered from a table's
// batches may share its dictionaries: appending only adds entries, so their
// cells never change, but they must not be read while the table they came
// from is appended to.

#ifndef OPD_STORAGE_TABLE_H_
#define OPD_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace opd::storage {

/// \brief A named, schema-ful collection of rows, stored column-wise.
///
/// Tables are immutable once handed to the Dfs; producers build them with
/// AppendRow (or FromBatches) and then store them.
class Table {
 public:
  Table() : Table("", Schema()) {}
  Table(std::string name, Schema schema);

  /// Builds a table whose payload is `batches`.
  static Table FromBatches(std::string name, Schema schema,
                           std::vector<RowBatch> batches);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return num_rows_; }

  /// Row `i`, built from its batch.
  Row row(size_t i) const;

  /// Every row in table order, built from the batches on each call.
  std::vector<Row> rows() const;

  /// The stored batches (zero cost). The snapshot never changes, also when
  /// the table is appended to afterwards.
  std::shared_ptr<const std::vector<RowBatch>> ToBatches() const {
    return batches_;
  }

  /// Appends a row; fails if the arity does not match the schema.
  Status AppendRow(Row row);

  /// Total approximate serialized size of all rows, in bytes.
  size_t ByteSize() const { return bytes_; }

  /// Average row width in bytes (0 when empty).
  double AvgRowBytes() const;

  /// Cell accessor by column name; fails on missing column or row index.
  Result<Value> Get(size_t row_idx, const std::string& column) const;

 private:
  /// Index of the batch holding row `i` (i < num_rows()).
  size_t BatchOf(size_t i) const;
  /// Starts a new tail batch; `fresh_dicts` replaces the dictionaries the
  /// tail's string columns intern into.
  void OpenTail(bool fresh_dicts);

  std::string name_;
  Schema schema_;
  std::shared_ptr<std::vector<RowBatch>> batches_;
  std::vector<size_t> batch_offsets_;  // start row of each batch
  size_t num_rows_ = 0;
  size_t bytes_ = 0;
  // True when the last batch is this table's AppendRow tail, whose string
  // columns intern into `dicts_` (one per schema column, null for
  // non-string columns).
  bool tail_open_ = false;
  std::vector<DictionaryPtr> dicts_;
};

using TablePtr = std::shared_ptr<const Table>;

/// A contiguous [begin, end) slice of row indices — one map-task input split.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits `num_rows` rows of average width `avg_row_bytes` into contiguous
/// ranges of roughly `block_size_bytes` each — the Hadoop rule that one map
/// task processes one DFS block. Always returns at least one range covering
/// all rows (an empty input yields a single empty range so map-only jobs
/// still run their setup/teardown once).
std::vector<RowRange> SplitRowsByBlockSize(size_t num_rows,
                                           double avg_row_bytes,
                                           uint64_t block_size_bytes);

}  // namespace opd::storage

#endif  // OPD_STORAGE_TABLE_H_
