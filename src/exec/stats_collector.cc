#include "exec/stats_collector.h"

#include <algorithm>

#include "common/rng.h"

namespace opd::exec {

catalog::TableStats StatsCollector::Collect(
    const storage::Table& table) const {
  catalog::TableStats stats;
  // Exact from job counters.
  stats.rows = static_cast<double>(table.num_rows());
  stats.avg_row_bytes = table.AvgRowBytes();
  if (table.num_rows() == 0) return stats;

  // The sampled set is a function of (seed, row count) only.
  Rng rng(seed_ ^ table.num_rows());
  std::vector<size_t> sample;
  sample.reserve(static_cast<size_t>(
      fraction_ * static_cast<double>(table.num_rows()) + 1));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (rng.Bernoulli(fraction_)) sample.push_back(r);
  }
  if (sample.empty()) {
    // Degenerate sample: fall back to scanning the first row only.
    sample.push_back(0);
  }
  const size_t sampled = sample.size();

  const auto& schema = table.schema();
  const std::vector<catalog::ColumnSketch> sketches =
      catalog::SketchColumns(table, &sample);
  const double n = stats.rows;
  const double sn = static_cast<double>(sampled);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const std::string& name = schema.column(c).name;
    const double ds = static_cast<double>(sketches[c].distinct);
    // Saturation heuristic: if the sample looks mostly-unique, scale to the
    // full table; if it saturated at few values, take it as the cardinality.
    double est = ds >= 0.6 * sn ? ds * (n / sn) : ds;
    stats.distinct[name] = std::min(est, n);
    stats.col_bytes[name] = static_cast<double>(sketches[c].bytes) / sn;
  }
  return stats;
}

double StatsCollector::JobTime(const storage::Table& table,
                               const optimizer::CostModel& model) const {
  // A map-only pass over the sampled fraction of the data; no shuffle, a
  // metadata-sized output. As a lightweight piggybacked task it pays only a
  // fraction of a full MR job's startup latency.
  const double bytes = static_cast<double>(table.ByteSize()) * fraction_;
  plan::JobCostInfo cost = model.JobCost(bytes, 0.0, 1024.0, 1.0, 1.0, false);
  return cost.total_s - 0.875 * cost.latency_s;
}

}  // namespace opd::exec
