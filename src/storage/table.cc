#include "storage/table.h"

#include <algorithm>

namespace opd::storage {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  OpenTail(/*fresh_dicts=*/true);
}

Table Table::FromBatches(std::string name, Schema schema,
                         std::vector<RowBatch> batches) {
  Table t;
  t.name_ = std::move(name);
  t.schema_ = std::move(schema);
  t.batch_offsets_.clear();
  for (const RowBatch& b : batches) {
    t.batch_offsets_.push_back(t.num_rows_);
    t.num_rows_ += b.num_rows();
    t.bytes_ += b.ByteSize();
  }
  t.batches_ = std::make_shared<std::vector<RowBatch>>(std::move(batches));
  t.tail_open_ = false;
  t.dicts_.clear();
  return t;
}

void Table::OpenTail(bool fresh_dicts) {
  const size_t n = schema_.num_columns();
  if (fresh_dicts) {
    dicts_.assign(n, nullptr);
    for (size_t c = 0; c < n; ++c) {
      if (schema_.column(c).type == DataType::kString) {
        dicts_[c] = std::make_shared<Dictionary>();
      }
    }
  }
  std::vector<ColumnVectorPtr> columns;
  columns.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    columns.push_back(
        dicts_[c] != nullptr
            ? std::make_shared<ColumnVector>(
                  ColumnVector::StringWithSharedDict(dicts_[c]))
            : std::make_shared<ColumnVector>(schema_.column(c).type));
  }
  // Copy-on-write: a batch vector that a copy or a snapshot holds is never
  // grown in place.
  if (batches_ == nullptr) {
    batches_ = std::make_shared<std::vector<RowBatch>>();
  } else if (batches_.use_count() > 1) {
    batches_ = std::make_shared<std::vector<RowBatch>>(*batches_);
  }
  // An empty last batch is replaced rather than kept.
  if (!batches_->empty() && batches_->back().num_rows() == 0) {
    batches_->pop_back();
    batch_offsets_.pop_back();
  }
  batch_offsets_.push_back(num_rows_);
  batches_->emplace_back(std::move(columns), 0);
  tail_open_ = true;
}

Status Table::AppendRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  // A tail that a copy of this table or a ToBatches() snapshot can see is
  // sealed as it is, and the next tail interns into fresh dictionaries.
  bool shared = batches_.use_count() > 1;
  if (tail_open_) {
    for (const ColumnVectorPtr& col : batches_->back().columns_) {
      shared = shared || col.use_count() > 1;
    }
  }
  if (!tail_open_ || shared ||
      batches_->back().num_rows() == RowBatch::kDefaultRows) {
    OpenTail(/*fresh_dicts=*/!tail_open_ || shared);
  }
  RowBatch& tail = batches_->back();
  for (size_t c = 0; c < row.size(); ++c) tail.columns_[c]->Append(row[c]);
  ++tail.num_rows_;
  ++num_rows_;
  bytes_ += RowByteSize(row);
  return Status::OK();
}

size_t Table::BatchOf(size_t i) const {
  // The last batch starting at or before row i (offsets are ascending).
  auto it = std::upper_bound(batch_offsets_.begin(), batch_offsets_.end(), i);
  return static_cast<size_t>(it - batch_offsets_.begin()) - 1;
}

Row Table::row(size_t i) const {
  const size_t b = BatchOf(i);
  return (*batches_)[b].RowAt(i - batch_offsets_[b]);
}

std::vector<Row> Table::rows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (const RowBatch& b : *batches_) {
    for (size_t r = 0; r < b.num_rows(); ++r) rows.push_back(b.RowAt(r));
  }
  return rows;
}

double Table::AvgRowBytes() const {
  if (num_rows_ == 0) return 0.0;
  return static_cast<double>(bytes_) / static_cast<double>(num_rows_);
}

Result<Value> Table::Get(size_t row_idx, const std::string& column) const {
  if (row_idx >= num_rows_) {
    return Status::OutOfRange("row index out of range");
  }
  auto idx = schema_.IndexOf(column);
  if (!idx) return Status::NotFound("no such column: " + column);
  const size_t b = BatchOf(row_idx);
  return (*batches_)[b].column(*idx).GetValue(row_idx - batch_offsets_[b]);
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
