// In-memory table: schema plus rows. The unit of data the MR simulator
// reads, shuffles, and materializes.
//
// A table holds its payload in one of two equivalent representations:
//  - row-primary: a vector of `Row`s (AppendRow builders, CSV loads), with
//    a lazily built, cached columnar form available via `ToBatches()`;
//  - batch-primary: a vector of `RowBatch`es (outputs of the vectorized
//    engine kernels, built with `FromBatches()`), with rows materialized
//    lazily on first `rows()` access.
// Both directions reconstruct cells exactly, so every consumer of the
// row API sees byte-identical data regardless of which path produced the
// table.

#ifndef OPD_STORAGE_TABLE_H_
#define OPD_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace opd::storage {

/// \brief A named, schema-ful collection of rows.
///
/// Tables are immutable once handed to the Dfs; producers build them with
/// AppendRow (or FromBatches) and then store them.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// Builds a batch-primary table: `batches` is the payload, rows are
  /// materialized only if a consumer asks for the row API.
  static Table FromBatches(std::string name, Schema schema,
                           std::vector<RowBatch> batches);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const {
    return batch_primary_ ? batch_num_rows_ : rows_.size();
  }
  const Row& row(size_t i) const { return rows()[i]; }

  /// Row payload; materialized (once, thread-safely) from the columnar
  /// payload for batch-primary tables, then cached on the table for its
  /// lifetime (counted by `storage.table.rows_materialized`). The default
  /// serving path never calls this on a batch-primary table: the UDF
  /// boundary builds a private row copy instead (DESIGN.md §2d).
  const std::vector<Row>& rows() const;

  /// True when the table's primary payload is columnar.
  bool columnar() const { return batch_primary_; }

  /// Columnar payload: the stored batches for batch-primary tables (zero
  /// cost), or a lazily built, cached batching of the rows (batches of
  /// `RowBatch::kDefaultRows`) for row-primary tables (rows converted are
  /// counted by `storage.table.rows_batched`).
  std::shared_ptr<const std::vector<RowBatch>> ToBatches() const;

  /// Appends a row; fails if the arity does not match the schema or the
  /// table is batch-primary (batch tables are sealed at construction).
  Status AppendRow(Row row);

  /// Pre-allocates capacity for `n` rows (builders on hot paths).
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Total approximate serialized size of all rows, in bytes. Computed
  /// column-wise for batch-primary tables — same value by construction.
  size_t ByteSize() const;

  /// Average row width in bytes (0 when empty).
  double AvgRowBytes() const;

  /// Cell accessor by column name; fails on missing column or row index.
  /// Batch-primary tables answer from columns without materializing rows.
  Result<Value> Get(size_t row_idx, const std::string& column) const;

 private:
  const std::vector<Row>& MaterializedRows() const;

  std::string name_;
  Schema schema_;
  mutable std::vector<Row> rows_;
  mutable size_t cached_bytes_ = 0;
  mutable size_t cached_bytes_rows_ = 0;  // row count the cache was taken at

  // Columnar payload (primary or cache) and its bookkeeping.
  mutable std::shared_ptr<const std::vector<RowBatch>> batches_;
  mutable size_t batch_cache_rows_ = 0;  // row count batches_ was built at
  std::vector<size_t> batch_offsets_;    // start row of each batch
  size_t batch_num_rows_ = 0;
  bool batch_primary_ = false;
  mutable bool rows_ready_ = true;  // false until a batch table materializes
  mutable bool bytes_ready_ = false;
  // Guards lazy row<->batch conversion; shared so Table stays movable.
  std::shared_ptr<std::mutex> lazy_mu_ = std::make_shared<std::mutex>();
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
