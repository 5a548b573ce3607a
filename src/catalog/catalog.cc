#include "catalog/catalog.h"

#include <algorithm>

namespace opd::catalog {

double TableStats::DistinctOr(const std::string& column,
                              double fallback) const {
  auto it = distinct.find(column);
  return it == distinct.end() ? fallback : it->second;
}

double TableStats::ColBytesOr(const std::string& column,
                              double fallback) const {
  auto it = col_bytes.find(column);
  return it == col_bytes.end() ? fallback : it->second;
}

std::vector<ColumnSketch> SketchColumns(const storage::Table& table,
                                        const std::vector<size_t>* sample) {
  const size_t num_columns = table.schema().num_columns();
  const size_t n = sample != nullptr ? sample->size() : table.num_rows();
  auto row_of = [sample](size_t i) {
    return sample != nullptr ? (*sample)[i] : i;
  };

  // Locate every sketched row as (batch, row within the batch).
  const auto batches = table.ToBatches();
  std::vector<std::pair<size_t, size_t>> cells;
  cells.reserve(n);
  size_t first_row = 0, i = 0;
  for (size_t b = 0; b < batches->size(); ++b) {
    const size_t end_row = first_row + (*batches)[b].num_rows();
    for (; i < n && row_of(i) < end_row; ++i) {
      cells.emplace_back(b, row_of(i) - first_row);
    }
    first_row = end_row;
  }

  std::vector<ColumnSketch> sketches(num_columns);
  std::vector<uint64_t> hashes(n);
  for (size_t c = 0; c < num_columns; ++c) {
    uint64_t bytes = 0;
    for (size_t k = 0; k < n; ++k) {
      const auto [b, r] = cells[k];
      const storage::ColumnVector& col = (*batches)[b].column(c);
      hashes[k] = col.HashAt(r);
      bytes += col.CellByteSize(r);
    }
    std::sort(hashes.begin(), hashes.end());
    const auto distinct = std::unique(hashes.begin(), hashes.end());
    sketches[c] = ColumnSketch{
        static_cast<uint64_t>(distinct - hashes.begin()), bytes};
  }
  return sketches;
}

TableStats ComputeExactStats(const storage::Table& table) {
  TableStats stats;
  stats.rows = static_cast<double>(table.num_rows());
  stats.avg_row_bytes = table.AvgRowBytes();
  const auto& schema = table.schema();
  const std::vector<ColumnSketch> sketches = SketchColumns(table, nullptr);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const std::string& name = schema.column(c).name;
    stats.distinct[name] = static_cast<double>(sketches[c].distinct);
    stats.col_bytes[name] =
        table.num_rows() == 0 ? 0.0
                              : static_cast<double>(sketches[c].bytes) /
                                    static_cast<double>(table.num_rows());
  }
  return stats;
}

Status Catalog::RegisterBase(const storage::TablePtr& table,
                             const std::vector<std::string>& key_columns,
                             storage::Dfs* dfs) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  const std::string& name = table->name();
  if (name.empty()) return Status::InvalidArgument("table has no name");
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("base table exists: " + name);
  }
  for (const std::string& k : key_columns) {
    if (!table->schema().Has(k)) {
      return Status::InvalidArgument("key column " + k + " not in schema of " +
                                     name);
    }
  }
  BaseTableEntry entry;
  entry.name = name;
  entry.schema = table->schema();
  for (const auto& col : entry.schema.columns()) {
    entry.attrs.push_back(afk::Attribute::Base(name, col.name, col.type));
  }
  entry.afk = afk::Afk::ForBaseRelation(name, entry.attrs, key_columns);
  entry.dfs_path = "base/" + name;
  entry.stats = ComputeExactStats(*table);
  OPD_RETURN_NOT_OK(dfs->Write(entry.dfs_path, table));
  tables_.emplace(name, std::move(entry));
  return Status::OK();
}

Result<const BaseTableEntry*> Catalog::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such base table: " + name);
  }
  return &it->second;
}

bool Catalog::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Catalog::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace opd::catalog
