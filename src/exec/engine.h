// The MapReduce execution simulator.
//
// Executes an annotated plan job by job: every non-scan operator runs as one
// MR job over real rows, materializes its output to the simulated DFS, and —
// as in Hive — that materialization is retained as an opportunistic view
// (with its AFK annotation, plan fingerprint, and sampled statistics) that
// the caller publishes to the ViewStore. Modeled cluster time is computed by
// applying the cost model to the *observed* byte counts of each job.
//
// The Engine plans, schedules and finalizes jobs; each job's body is one
// operator function of the shared interface in exec/ops.h (RunProject,
// RunFilter, RunJoin, RunGroupBy, RunUdf) over one task context.

#ifndef OPD_EXEC_ENGINE_H_
#define OPD_EXEC_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "exec/metrics.h"
#include "exec/stats_collector.h"
#include "obs/trace.h"
#include "optimizer/accountability.h"
#include "optimizer/optimizer.h"
#include "plan/plan.h"
#include "storage/dfs.h"
#include "udf/udf_registry.h"

namespace opd::exec {

namespace hash {
class HashRecycler;
}

/// Execution knobs.
struct EngineOptions {
  /// Retain job outputs as opportunistic views (Section 2.1). Always true in
  /// the paper's system; switchable for ablation.
  bool retain_views = true;
  /// Run the sampling stats job for each retained view (at
  /// kStatsSampleFraction with kStatsSeed, stats_collector.h).
  bool collect_stats = true;
  /// Worker threads for map/reduce task execution. 0 means one per core;
  /// 1 runs every task inline on the calling thread (the pre-parallel
  /// behavior). Results are byte-identical for every setting.
  int num_threads = 0;
  /// Reduce tasks (shuffle buckets) per job; 0 derives the count from the
  /// job's shuffle bytes and the DFS block size. Like the thread count this
  /// never changes results, only task granularity.
  int num_reduce_tasks = 0;
  /// Publish per-job observations (shuffle skew, hash-table load factors,
  /// dictionary compression, byte counts) into obs::MetricRegistry::Global().
  bool metrics = true;
};

/// Observed execution record of one MR job — the raw material for
/// EXPLAIN ANALYZE and for the per-job args of the trace.
struct JobRun {
  int index = 0;                        ///< job position in submission order
  const plan::OpNode* node = nullptr;   ///< plan node this job executed
  std::string op;                       ///< node DisplayName at run time
  double sim_time_s = 0;                ///< modeled cluster time
  double wall_time_s = 0;               ///< real wall-clock of the job
  uint64_t bytes_read = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t bytes_written = 0;
  uint64_t rows_in = 0;                 ///< input rows gathered by the job
  uint64_t rows_out = 0;
  size_t map_tasks = 0;                 ///< pipeline (map+partition) tasks
  size_t reduce_tasks = 0;              ///< shuffle buckets (0 = map-only)
  double max_task_time_s = 0;           ///< modeled straggler (critical path)
  /// Cost-model accountability (see optimizer/accountability.h): the
  /// optimizer's plan-time prediction for this job, the model re-evaluated
  /// on the observed byte counts (== sim_time_s), and the signed residual.
  double predicted_cost_s = 0;
  double observed_proxy_cost_s = 0;
  double residual_pct = 0;
  /// Hash-table recycler outcomes of this job (0/0 when the job had no
  /// recyclable build or recycling is off). EXPLAIN ANALYZE renders
  /// "recycle=hit" / "recycle=miss"; the server attributes them per tenant.
  uint64_t recycle_hits = 0;
  uint64_t recycle_misses = 0;
};

/// Result of executing one plan.
struct ExecResult {
  storage::TablePtr table;
  ExecMetrics metrics;
  /// One record per executed MR job, in submission order.
  std::vector<JobRun> jobs;
  /// Materialized-view definitions awaiting publication, in job order
  /// (empty unless EngineOptions::retain_views). The data is already in the
  /// DFS; the caller publishes the definitions, as one atomic batch, to make
  /// them visible (the serving layer does so at query completion,
  /// DESIGN.md §3).
  std::vector<catalog::ViewDefinition> pending_views;
};

/// \brief Executes plans over the simulated cluster.
class Engine {
 public:
  Engine(storage::Dfs* dfs, const optimizer::Optimizer* optimizer,
         EngineOptions options = {})
      : dfs_(dfs),
        optimizer_(optimizer),
        options_(options),
        counters_(ExecCounters::Resolve(options.metrics)) {
    const int threads = ThreadPool::DefaultThreads(options_.num_threads);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }

  /// Prepares (annotates/costs) and executes `plan`. The sink's output table
  /// and the run's metrics are returned; when retention is on, every job's
  /// materialization comes back as a view definition in `pending_views`.
  ///
  /// Scans resolve up front; every other node becomes one job, which runs
  /// its operator function (exec/ops.h) over the sealed outputs of its
  /// inputs. Untraced runs with a pool schedule independent jobs
  /// concurrently (a DAG); traced runs execute jobs serially. Either way the
  /// jobs finalize serially in job order (DFS writes, metrics, JobRuns,
  /// view definitions), and a failure returns the lowest-index failed job's
  /// status. When `trace` is non-null each job opens a "job:<op>" span under
  /// `parent_span`, with "pipeline"/"reduce" phase spans and one span per
  /// task. Span structure is identical at every thread count; only
  /// durations vary.
  Result<ExecResult> Execute(plan::Plan* plan, obs::Trace* trace = nullptr,
                             uint64_t parent_span = 0);

  const EngineOptions& options() const { return options_; }
  /// Number of Execute calls so far (used to build unique DFS paths).
  int runs() const { return run_counter_.load(); }

  /// Attaches a cost accountant: every finalized job's residual is folded
  /// into its per-operator-class EWMA. Caller owns; may be null to detach.
  void set_accountant(optimizer::CostAccountant* accountant) {
    accountant_ = accountant;
  }

  /// Attaches a hash-table recycler (HashStash-style, see
  /// src/exec/hash/recycler.h): when a join build side or group-by input is
  /// a direct scan of an unchanged table/view, the engine reuses the cached
  /// structures instead of rebuilding. Thread-safe; shared across every
  /// Execute of this engine, and across engines/tenants when the serving
  /// layer hangs one off the Server. Caller owns; null (the default)
  /// detaches and disables recycling. Results are byte-identical either
  /// way.
  void set_recycler(hash::HashRecycler* recycler) { recycler_ = recycler; }

 private:
  storage::Dfs* dfs_;
  const optimizer::Optimizer* optimizer_;
  optimizer::CostAccountant* accountant_ = nullptr;
  hash::HashRecycler* recycler_ = nullptr;
  EngineOptions options_;
  StatsCollector stats_;
  ExecCounters counters_;
  /// Task pool shared by all jobs of this engine; null when running with a
  /// single thread (tasks then execute inline on the calling thread).
  std::unique_ptr<ThreadPool> pool_;
  /// Atomic: concurrent tenant queries of a Server share one Engine, and
  /// each Execute call needs a unique "views/run<N>/..." DFS namespace.
  std::atomic<int> run_counter_{0};

  struct Execution;  // one Execute call's jobs and results (engine.cc)
};

}  // namespace opd::exec

#endif  // OPD_EXEC_ENGINE_H_
