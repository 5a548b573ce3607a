// The operator interface of the MR engine (DESIGN.md §2c).
//
// Every non-scan plan operator runs as one MR job through one free function
// of one signature: it reads its sealed input tables (OpInput), runs its
// tasks under a TaskCtx, and reports its output table and the job's
// observations (OpResult). Engine::Execute only plans, schedules, samples
// stats and finalizes; the operator bodies live in exec/ops/ (project,
// filter, join, group-by) and exec/udf_exec.cc (UDF).
//
// Below the interface is the task toolkit the operators and the UDF runner
// share: one task wave (RunPhase), one pipelined shuffle
// (RunPipelinedShuffle), one batch partition producer (PartitionBatch) and
// one recycler helper (RecycleSlot).
//
// Determinism contract (every wave and shuffle): every task runs to
// completion, the lowest-index failure wins (producers before consumers),
// and trace span ids are allocated serially before any task starts, so the
// span structure is identical at every thread count.

#ifndef OPD_EXEC_OPS_H_
#define OPD_EXEC_OPS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/hash/hash_kernels.h"
#include "exec/hash/recycler.h"
#include "exec/metrics.h"
#include "obs/trace.h"
#include "plan/operator.h"
#include "storage/partition_buffer.h"
#include "storage/row_batch.h"
#include "storage/table.h"
#include "udf/udf_registry.h"

namespace opd::exec {

/// Where and how an operator's tasks run. The default runs every task inline
/// on the calling thread, with a 64 KiB block and no trace: calibration,
/// scenario sampling and standalone UDF runs use it. The engine passes its
/// pool, the DFS block size and the job's span.
struct TaskCtx {
  ThreadPool* pool = nullptr;             // null => run every task inline
  uint64_t block_size_bytes = 64 * 1024;  // map split and reduce sizing unit
  int num_reduce_tasks = 0;               // 0 => DeriveReduceTasks
  /// Each wave opens a phase span under `parent_span`, with one span per
  /// task. A null trace makes all span work vanish.
  obs::Trace* trace = nullptr;
  uint64_t parent_span = 0;
  size_t* tasks = nullptr;  // accumulates every launched task

  /// This context with its waves parented under `span` (a UDF stage).
  TaskCtx Under(uint64_t span) const {
    TaskCtx c = *this;
    c.parent_span = span;
    return c;
  }
};

/// What one operator job reads: its plan node and one sealed table per
/// child, plus the engine services it may use.
struct OpInput {
  const plan::OpNode* node = nullptr;
  std::vector<storage::TablePtr> tables;  // in child order
  /// Per child: the recycling identity of a direct scan, "" when the child
  /// is not recyclable (operator outputs are run-local) or no recycler is
  /// attached.
  std::vector<std::string> recycle_ids;
  const udf::UdfRegistry* udfs = nullptr;
  hash::HashRecycler* recycler = nullptr;  // null => recycling off
  const ExecCounters* counters = nullptr;  // never null
};

/// What one operator job produced and observed.
struct OpResult {
  storage::Table table;  // unnamed; the engine names and seals it
  uint64_t shuffle_bytes = 0;
  bool has_shuffle = false;
  double map_scalar = 1.0;  // cost-model scalars (calibrated for UDFs)
  double reduce_scalar = 1.0;
  double max_task_s = 0;     // critical-path task time across the job
  size_t reduce_tasks = 0;   // shuffle buckets across every reduce
  double skew = -1.0;        // fullest / mean shuffle bucket; < 0 = none
  uint64_t recycle_hits = 0;
  uint64_t recycle_misses = 0;
};

/// The operators. Each fills `out` or returns the first task failure.
/// Project: a column swizzle compiled into an ExprProgram; output batches
/// share the input's column vectors, no cell is touched.
Status RunProject(const OpInput& in, const TaskCtx& ctx, OpResult* out);
/// Filter: one task per batch; compare predicates run as fused expression
/// programs, opaque predicates per row; survivors are gathered column-wise
/// (full-batch selections are zero-copy).
Status RunFilter(const OpInput& in, const TaskCtx& ctx, OpResult* out);
/// Equi-join: a pipelined shuffle into flat build tables on the smaller
/// side, output in probe-row order.
Status RunJoin(const OpInput& in, const TaskCtx& ctx, OpResult* out);
/// Group-by/aggregate: a pipelined shuffle into flat group indexes, output
/// sorted by key.
Status RunGroupBy(const OpInput& in, const TaskCtx& ctx, OpResult* out);
/// UDF: the local-function pipeline (RunLocalFunctions, udf_exec.h).
Status RunUdf(const OpInput& in, const TaskCtx& ctx, OpResult* out);

// --- Task toolkit ------------------------------------------------------------

/// \brief Runs one wave of `n` tasks under a `phase` span with one span per
/// task. With a null trace this is a bare ParallelFor.
Status RunPhase(const TaskCtx& ctx, const char* phase, size_t n,
                const std::function<Status(size_t)>& fn,
                double* max_task_seconds);

/// \brief Runs `num_producers` fused producer tasks and, once a bucket's
/// producers have all finished, that bucket's consumer task.
///
/// A shuffle runs as one wave of fused producers (scan -> operator ->
/// partition in one loop over an input split, writing into a
/// storage::PartitionBuffer) plus one consumer per bucket. There is no phase
/// barrier: each bucket has a countdown latch of the producer count, and the
/// decrement that reaches zero schedules that bucket's consumer at once.
/// `num_buckets == 0` degenerates to a map-only wave. Under a trace this
/// opens a "pipeline" phase span (task spans "pipeline:<i>") and, when
/// buckets exist, a "reduce" phase span with one "bucket:<b>" span each.
///
/// \param[out] max_producer_seconds / max_consumer_seconds  wall time of the
///   slowest producer / consumer task (the wave's modeled stragglers).
Status RunPipelinedShuffle(const TaskCtx& ctx, size_t num_producers,
                           const std::function<Status(size_t)>& producer,
                           size_t num_buckets,
                           const std::function<Status(size_t)>& consumer,
                           double* max_producer_seconds = nullptr,
                           double* max_consumer_seconds = nullptr);

/// Reduce tasks (shuffle buckets) for `shuffle_bytes` of shuffle input:
/// ctx.num_reduce_tasks when set, else one per block, capped at 64. Derived
/// from bytes only, so the bucketing is thread-count invariant.
size_t DeriveReduceTasks(const TaskCtx& ctx, uint64_t shuffle_bytes);

/// Lexicographic Row order (the deterministic merge order of group outputs).
struct RowLess {
  bool operator()(const storage::Row& a, const storage::Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  }
};

/// Resolves a column at execution time.
Result<size_t> ColIndex(const storage::Schema& schema,
                        const std::string& name);

/// A table's batches plus flat-row-index bookkeeping.
struct BatchList {
  std::shared_ptr<const std::vector<storage::RowBatch>> batches;
  std::vector<size_t> offsets;  // global row index of each batch's first row
  size_t num_rows = 0;

  explicit BatchList(const storage::Table& t);
  size_t size() const { return batches->size(); }
  const storage::RowBatch& batch(size_t b) const { return (*batches)[b]; }
};

/// One row of a BatchList (shared with the recycler, so cached builds use
/// the exact payload layout the operators probe with).
using RowRef = hash::RowRef;
using RowPartition = storage::PartitionBuffer<RowRef>;

/// Partition producer for batch `t` of `list`: hashes its `keys` into
/// hashes[offsets[t] ...] and appends each row to its bucket in `buf`
/// (producer `t`), recording the bucket in buckets[offsets[t] ...] when
/// `buckets` is non-null.
void PartitionBatch(const BatchList& list, size_t t,
                    const std::vector<size_t>& keys, RowPartition* buf,
                    uint64_t* hashes, uint32_t* buckets = nullptr);

/// Ratio of the fullest bucket to the mean bucket (1.0 = balanced);
/// negative when there is nothing to measure.
double BucketSkew(const RowPartition& buf);

/// \brief The recycler's view of one join build or group-by input.
///
/// When input `child` is a direct scan and a recycler is attached, the
/// constructor looks the build up and counts the hit or miss. On a miss it
/// opens a pending entry pinned to `list`, which the operator fills and
/// Commit() inserts. Without a recycler both cached() and pending() are null.
class RecycleSlot {
 public:
  RecycleSlot(const OpInput& in, size_t child, hash::RecycleKind kind,
              const std::vector<size_t>& key_cols, const hash::KeyCodec& codec,
              size_t num_buckets, const BatchList& list, OpResult* out);

  const hash::CachedBuild* cached() const { return cached_.get(); }
  hash::CachedBuild* pending() const { return pending_.get(); }

  /// Inserts the filled pending entry, crediting `build_cost_s` per future
  /// hit, and publishes the outcome. No-op without a pending entry.
  void Commit(double build_cost_s);

 private:
  hash::HashRecycler* recycler_ = nullptr;
  const ExecCounters* counters_ = nullptr;
  hash::RecycleKey key_;
  std::shared_ptr<const hash::CachedBuild> cached_;
  std::shared_ptr<hash::CachedBuild> pending_;
};

}  // namespace opd::exec

#endif  // OPD_EXEC_OPS_H_
