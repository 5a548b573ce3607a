// Statistics collection for materialized views (Section 2.1): "for each view
// stored, we collect statistics by running a lightweight Map job that samples
// the view's data".

#ifndef OPD_EXEC_STATS_COLLECTOR_H_
#define OPD_EXEC_STATS_COLLECTOR_H_

#include "catalog/catalog.h"
#include "optimizer/cost_model.h"
#include "storage/table.h"

namespace opd::exec {

/// Fraction of rows the engine's stats Map job samples, and the seed of its
/// per-row draws.
inline constexpr double kStatsSampleFraction = 0.05;
inline constexpr uint64_t kStatsSeed = 42;

/// \brief Samples a table and estimates its statistics.
class StatsCollector {
 public:
  /// \param sample_fraction fraction of rows sampled by the stats Map job
  explicit StatsCollector(double sample_fraction = kStatsSampleFraction,
                          uint64_t seed = kStatsSeed)
      : fraction_(sample_fraction), seed_(seed) {}

  /// Estimates stats from a deterministic sample. Row count and byte size
  /// come from job counters (exact); per-column distincts and widths are
  /// estimated from the sample. The sample is drawn from the seeded RNG, one
  /// draw per row in row order, so it depends on neither threading nor the
  /// table's batch layout; columns are then sketched column-wise
  /// (catalog::SketchColumns), without building rows. Runs on the calling
  /// thread: a sample is a few percent of the
  /// table, cheaper to sketch than a pool dispatch, whose wait would run
  /// unrelated queued tasks on this thread.
  catalog::TableStats Collect(const storage::Table& table) const;

  /// Modeled time of the sampling Map job under `model`.
  double JobTime(const storage::Table& table,
                 const optimizer::CostModel& model) const;

 private:
  double fraction_;
  uint64_t seed_;
};

}  // namespace opd::exec

#endif  // OPD_EXEC_STATS_COLLECTOR_H_
