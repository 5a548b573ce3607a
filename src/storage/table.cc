#include "storage/table.h"

#include <algorithm>

#include "obs/metrics.h"

namespace opd::storage {

Table Table::FromBatches(std::string name, Schema schema,
                         std::vector<RowBatch> batches) {
  Table t(std::move(name), std::move(schema));
  t.batch_primary_ = true;
  t.rows_ready_ = false;
  t.batch_offsets_.reserve(batches.size());
  for (const RowBatch& b : batches) {
    t.batch_offsets_.push_back(t.batch_num_rows_);
    t.batch_num_rows_ += b.num_rows();
  }
  t.batches_ =
      std::make_shared<const std::vector<RowBatch>>(std::move(batches));
  return t;
}

const std::vector<Row>& Table::rows() const {
  if (batch_primary_) return MaterializedRows();
  return rows_;
}

const std::vector<Row>& Table::MaterializedRows() const {
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  if (rows_ready_) return rows_;
  static obs::Counter& materialized =
      obs::MetricRegistry::Global().counter("storage.table.rows_materialized");
  std::vector<Row> rows;
  rows.reserve(batch_num_rows_);
  for (const RowBatch& b : *batches_) {
    for (size_t r = 0; r < b.num_rows(); ++r) rows.push_back(b.RowAt(r));
  }
  materialized.Inc(rows.size());
  rows_ = std::move(rows);
  rows_ready_ = true;
  return rows_;
}

std::shared_ptr<const std::vector<RowBatch>> Table::ToBatches() const {
  if (batch_primary_) return batches_;
  std::lock_guard<std::mutex> lock(*lazy_mu_);
  if (batches_ != nullptr && batch_cache_rows_ == rows_.size()) {
    return batches_;
  }
  static obs::Counter& batched =
      obs::MetricRegistry::Global().counter("storage.table.rows_batched");
  // One table-wide dictionary per string column: every batch of the column
  // interns into (and shares) the same dictionary, so codes are comparable
  // across batches and downstream gathers stay dictionary-encoded.
  std::vector<DictionaryPtr> shared_dicts(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (schema_.columns()[c].type == DataType::kString) {
      shared_dicts[c] = std::make_shared<Dictionary>();
    }
  }
  std::vector<RowBatch> batches;
  batches.reserve(rows_.size() / RowBatch::kDefaultRows + 1);
  if (rows_.empty()) {
    batches.push_back(RowBatch::FromRows(schema_, rows_, 0, 0, &shared_dicts));
  } else {
    for (size_t begin = 0; begin < rows_.size();
         begin += RowBatch::kDefaultRows) {
      batches.push_back(RowBatch::FromRows(
          schema_, rows_, begin,
          std::min(begin + RowBatch::kDefaultRows, rows_.size()),
          &shared_dicts));
    }
  }
  batched.Inc(rows_.size());
  batches_ =
      std::make_shared<const std::vector<RowBatch>>(std::move(batches));
  batch_cache_rows_ = rows_.size();
  return batches_;
}

Status Table::AppendRow(Row row) {
  if (batch_primary_) {
    return Status::InvalidArgument(
        "AppendRow on batch-primary table " + name_ +
        " (batch tables are sealed at construction)");
  }
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

size_t Table::ByteSize() const {
  if (batch_primary_) {
    std::lock_guard<std::mutex> lock(*lazy_mu_);
    if (!bytes_ready_) {
      size_t total = 0;
      for (const RowBatch& b : *batches_) total += b.ByteSize();
      cached_bytes_ = total;
      bytes_ready_ = true;
    }
    return cached_bytes_;
  }
  // An empty table returns without touching the cache, so concurrent
  // readers of a sealed table never write it.
  if (rows_.empty()) return 0;
  if (cached_bytes_rows_ == rows_.size()) return cached_bytes_;
  size_t total = 0;
  for (const Row& r : rows_) total += RowByteSize(r);
  cached_bytes_ = total;
  cached_bytes_rows_ = rows_.size();
  return total;
}

double Table::AvgRowBytes() const {
  const size_t n = num_rows();
  if (n == 0) return 0.0;
  return static_cast<double>(ByteSize()) / static_cast<double>(n);
}

Result<Value> Table::Get(size_t row_idx, const std::string& column) const {
  if (row_idx >= num_rows()) {
    return Status::OutOfRange("row index out of range");
  }
  auto idx = schema_.IndexOf(column);
  if (!idx) return Status::NotFound("no such column: " + column);
  if (batch_primary_) {
    // Locate the batch covering row_idx (offsets are ascending).
    auto it = std::upper_bound(batch_offsets_.begin(), batch_offsets_.end(),
                               row_idx);
    const size_t b = static_cast<size_t>(it - batch_offsets_.begin()) - 1;
    return (*batches_)[b].column(*idx).GetValue(row_idx - batch_offsets_[b]);
  }
  return rows_[row_idx][*idx];
}

std::vector<RowRange> SplitRowsByBlockSize(size_t num_rows,
                                           double avg_row_bytes,
                                           uint64_t block_size_bytes) {
  size_t rows_per_split = num_rows;
  if (avg_row_bytes > 0 && block_size_bytes > 0) {
    const double per_block =
        static_cast<double>(block_size_bytes) / avg_row_bytes;
    rows_per_split = per_block < 1.0 ? 1 : static_cast<size_t>(per_block);
  }
  if (rows_per_split == 0) rows_per_split = 1;

  std::vector<RowRange> splits;
  if (num_rows == 0) {
    splits.push_back(RowRange{0, 0});
    return splits;
  }
  splits.reserve(num_rows / rows_per_split + 1);
  for (size_t begin = 0; begin < num_rows; begin += rows_per_split) {
    splits.push_back(RowRange{begin, std::min(begin + rows_per_split,
                                              num_rows)});
  }
  return splits;
}

}  // namespace opd::storage
