// Execution metrics reported by the MR simulator.

#ifndef OPD_EXEC_METRICS_H_
#define OPD_EXEC_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace opd::exec {

namespace hash {
struct FlatStats;
}

/// \brief What one plan execution cost, in modeled cluster time and actual
/// data movement (the paper's Figures 7-8 metrics).
struct ExecMetrics {
  /// Modeled cluster execution time (cost model applied to observed bytes).
  double sim_time_s = 0;
  /// Statistics-collection overhead (the lightweight sampling Map jobs),
  /// in *modeled* cluster time. Zero whenever stats collection is off —
  /// the sampling job never ran, so there is nothing to model.
  double stats_time_s = 0;
  /// Real measured wall-clock of the StatsCollector passes. Like
  /// max_task_time_s this varies run to run and is excluded from
  /// determinism comparisons.
  double stats_wall_time_s = 0;
  /// Actual bytes read from the DFS across all jobs.
  uint64_t bytes_read = 0;
  /// Rows fed into jobs (base tables, views, and intermediates alike —
  /// the row-count twin of bytes_read). Deterministic for a given plan.
  uint64_t rows_read = 0;
  /// Actual bytes sorted/transferred in shuffles.
  uint64_t bytes_shuffled = 0;
  /// Actual bytes written to the DFS.
  uint64_t bytes_written = 0;
  int jobs = 0;
  int views_created = 0;
  /// Sum over jobs of the wall-clock time of each job's slowest task (the
  /// simulated straggler). Unlike the byte counters this is real measured
  /// time, so it varies run to run; it feeds the cost model's future
  /// straggler accounting and is excluded from determinism comparisons.
  double max_task_time_s = 0;

  /// Total "data manipulated" (read + shuffled + written), Figure 8(b).
  uint64_t BytesManipulated() const {
    return bytes_read + bytes_shuffled + bytes_written;
  }
  /// Total reported time including statistics collection.
  double TotalTime() const { return sim_time_s + stats_time_s; }

  ExecMetrics& operator+=(const ExecMetrics& other);
  std::string ToString() const;
  /// One flat JSON object with every field plus the derived totals — the
  /// single serialization used by bench --json and the trace export.
  std::string ToJson() const;
};

/// \brief The engine's handles into obs::MetricRegistry::Global(), resolved
/// once per Engine (registry objects live forever), so no job takes the
/// registry mutex. Every handle is null when EngineOptions::metrics is off.
struct ExecCounters {
  // Shuffle hash tables (join builds, group-by indexes).
  obs::Histogram* ht_load = nullptr;       // engine.hash.load_factor
  obs::Counter* ht_resizes = nullptr;      // engine.shuffle.ht_resizes
  obs::Counter* arena_bytes = nullptr;     // engine.shuffle.arena_bytes
  obs::Histogram* probe_len = nullptr;     // engine.shuffle.probe_len
  // Hash-table recycling (src/exec/hash/recycler.h).
  obs::Counter* recycle_hit = nullptr;
  obs::Counter* recycle_miss = nullptr;
  obs::Counter* recycle_insert = nullptr;
  obs::Counter* recycle_evict = nullptr;
  obs::Gauge* recycle_bytes = nullptr;
  // Dictionary compression of gathered join output columns.
  obs::Counter* dict_values = nullptr;
  obs::Counter* dict_entries = nullptr;
  // Per-job totals, published in finalize.
  obs::Counter* jobs = nullptr;
  obs::Counter* bytes_read = nullptr;
  obs::Counter* bytes_shuffled = nullptr;
  obs::Counter* bytes_written = nullptr;
  obs::Histogram* skew = nullptr;          // engine.shuffle.skew

  static ExecCounters Resolve(bool enabled);

  /// Publishes one shuffle hash table's load factor, growth, arena and
  /// probe-length stats after its bucket finishes (thread-safe).
  void ObserveTable(size_t size, double load_factor, const hash::FlatStats& s,
                    size_t arena) const;
};

}  // namespace opd::exec

#endif  // OPD_EXEC_METRICS_H_
