#include "udf/local_function.h"

#include <algorithm>

namespace opd::udf {

using storage::ColumnVector;
using storage::DataType;

double ParamDouble(const Params& params, const std::string& key,
                   double default_value) {
  auto it = params.find(key);
  if (it == params.end()) return default_value;
  return it->second.ToDouble();
}

BatchBuilder::BatchBuilder(const storage::Schema& schema,
                           std::vector<size_t> passed)
    : schema_(&schema),
      passed_(std::move(passed)),
      cols_(schema.num_columns()),
      dicts_(schema.num_columns()),
      remaps_(schema.num_columns()) {
  for (size_t c = passed_.size(); c < schema.num_columns(); ++c) {
    if (schema.column(c).type == DataType::kString) {
      dicts_[c] = std::make_shared<storage::Dictionary>();
    }
  }
}

void BatchBuilder::Begin(const storage::RowBatch& in) {
  in_ = &in;
  sel_.clear();
  identity_ = true;
  for (size_t c = passed_.size(); c < cols_.size(); ++c) {
    cols_[c] = dicts_[c] != nullptr
                   ? std::make_shared<ColumnVector>(
                         ColumnVector::StringWithSharedDict(dicts_[c]))
                   : std::make_shared<ColumnVector>(schema_->column(c).type);
    cols_[c]->Reserve(in.num_rows());
  }
}

size_t BatchBuilder::num_rows() const {
  if (!passed_.empty()) return sel_.size();
  return cols_.empty() ? 0 : cols_[0]->size();
}

Status BatchBuilder::Finish(const std::string& lf_name,
                            storage::RowBatch* out) {
  const size_t n = cols_.size();
  std::vector<size_t> sizes(n);
  for (size_t c = 0; c < n; ++c) {
    sizes[c] = c < passed_.size() ? sel_.size() : cols_[c]->size();
  }
  const size_t rows =
      n == 0 ? 0 : *std::max_element(sizes.begin(), sizes.end());
  // A column short of cells means some row was emitted with fewer cells:
  // report it as the arity of the last row.
  const auto arity =
      static_cast<size_t>(std::count(sizes.begin(), sizes.end(), rows));
  if (arity != n) {
    return Status::Internal("local function " + lf_name +
                            " emitted row of arity " + std::to_string(arity) +
                            ", schema has " + std::to_string(n));
  }
  std::vector<storage::ColumnVectorPtr> columns(n);
  const bool all_rows = identity_ && sel_.size() == in_->num_rows();
  for (size_t c = 0; c < passed_.size(); ++c) {
    const storage::ColumnVectorPtr& src = in_->column_ptr(passed_[c]);
    const DataType type = schema_->column(c).type;
    if (src->declared_type() != type) {
      auto col = std::make_shared<ColumnVector>(type);
      col->Reserve(sel_.size());
      for (uint32_t r : sel_) col->AppendFrom(*src, r, &remaps_[c]);
      columns[c] = std::move(col);
    } else if (all_rows) {
      columns[c] = src;
    } else {
      columns[c] = src->GatherTo(sel_.data(), sel_.size());
    }
  }
  for (size_t c = passed_.size(); c < n; ++c) columns[c] = std::move(cols_[c]);
  *out = storage::RowBatch(std::move(columns), rows);
  in_ = nullptr;
  return Status::OK();
}

}  // namespace opd::udf
