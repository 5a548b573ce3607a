#include "exec/engine.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "exec/hash/recycler.h"
#include "exec/ops.h"
#include "obs/metrics.h"
#include "plan/fingerprint.h"

namespace opd::exec {

using plan::OpKind;
using plan::OpNode;
using plan::OpNodePtr;
using storage::Table;
using storage::TablePtr;

namespace {

// Operator class a job's cost residual is accounted under. UDFs get a class
// per UDF name: their map/reduce scalars are individually calibrated, so
// their drift is individually tracked.
std::string ResidualOpClass(const OpNode& node) {
  return node.kind == OpKind::kUdf ? "UDF:" + node.udf.udf_name
                                   : plan::OpKindName(node.kind);
}

// The operator of a job's node (ops.h); scans never become jobs.
Status RunOperator(const OpInput& in, const TaskCtx& ctx, OpResult* out) {
  switch (in.node->kind) {
    case OpKind::kProject:
      return RunProject(in, ctx, out);
    case OpKind::kFilter:
      return RunFilter(in, ctx, out);
    case OpKind::kJoin:
      return RunJoin(in, ctx, out);
    case OpKind::kGroupByAgg:
      return RunGroupBy(in, ctx, out);
    case OpKind::kUdf:
      return RunUdf(in, ctx, out);
    case OpKind::kScan:
      break;
  }
  return Status::Internal("no operator for " + in.node->DisplayName());
}

}  // namespace

// One Execute call: the jobs fixed at planning, each job's observed state,
// and the result the serial finalize accumulates.
struct Engine::Execution {
  // One job: planned by PlanJobs, then its observed state, written by
  // RunJob (possibly on a pool thread) and consumed by the serial finalize.
  struct Job {
    const OpNodePtr* node = nullptr;  // owned by `topo`
    std::string path;                 // DFS output path
    std::vector<size_t> producers;    // indices of non-scan input jobs
    Status status = Status::OK();
    TablePtr table;  // sealed output (named, not yet written to the DFS)
    OpResult op;     // everything the operator observed; its table moved out
    uint64_t in_bytes = 0;
    uint64_t in_rows = 0;
    uint64_t out_bytes = 0;
    uint64_t out_rows = 0;
    size_t tasks = 0;
    double wall_s = 0;
    plan::JobCostInfo cost;
    // Sampled view statistics of `table` (when retained with stats on).
    catalog::TableStats stats;
    double stats_wall_s = 0;
    double stats_time_s = 0;
  };

  Execution(Engine& e, plan::Plan* p, obs::Trace* t, int id)
      : engine(e), plan(p), trace(t), run_id(id) {}

  Engine& engine;
  plan::Plan* plan;
  obs::Trace* trace;
  int run_id;

  std::vector<OpNodePtr> topo;
  std::vector<Job> jobs;
  std::map<const OpNode*, size_t> job_of;
  // Scan tables, then finalized job outputs.
  std::map<const OpNode*, TablePtr> results;
  // Recycling identity of each scan node: view id + publish epoch for view
  // scans, table name for base scans. Read-only once planning ends.
  std::map<const OpNode*, std::string> scan_identity;
  ExecMetrics metrics;
  ExecResult result;

  Status PlanJobs();
  void RunJob(size_t j, obs::TraceSpan* job_span);
  void CollectStats(size_t j, obs::TraceSpan* job_span);
  Status FinalizeJob(size_t j, obs::TraceSpan* job_span);
  Status RunSerial(uint64_t parent_span);
  Status RunDag();
};

// Scans resolve serially up front (catalog/DFS lookups); every other
// operator becomes one job. Job indices — and therefore DFS output paths
// and ViewStore insertion order — are fixed here, in topological order, so
// they cannot depend on the execution schedule.
Status Engine::Execution::PlanJobs() {
  const plan::AnnotationContext& ctx = engine.optimizer_->context();
  topo = plan->TopoOrder();
  for (const OpNodePtr& node_ptr : topo) {
    const OpNode* node = node_ptr.get();
    if (node->kind == OpKind::kScan) {
      std::string path;
      if (node->view_id >= 0) {
        OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* def,
                             ctx.views->Find(node->view_id));
        path = def->dfs_path;
        scan_identity[node] =
            hash::ViewIdentity(node->view_id, def->publish_epoch);
      } else {
        OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* entry,
                             ctx.catalog->Find(node->table));
        path = entry->dfs_path;
        scan_identity[node] = hash::BaseIdentity(node->table);
      }
      // Scan bytes are accounted in the consuming job's input.
      OPD_ASSIGN_OR_RETURN(results[node], engine.dfs_->Read(path));
      continue;
    }
    Job job;
    job.node = &node_ptr;
    job.path = "views/run" + std::to_string(run_id) + "/job" +
               std::to_string(jobs.size());
    for (const OpNodePtr& child : node->children) {
      if (child->kind == OpKind::kScan) continue;
      auto it = job_of.find(child.get());
      if (it == job_of.end()) {
        return Status::Internal("missing child result for " +
                                node->DisplayName());
      }
      job.producers.push_back(it->second);
    }
    job_of[node] = jobs.size();
    jobs.push_back(std::move(job));
  }
  return Status::OK();
}

// Gathers one job's inputs and runs its operator. Everything here is
// schedule-independent: inputs are immutable tables, every side effect
// lands in this job's slot, and the metric handles are thread-safe.
void Engine::Execution::RunJob(size_t j, obs::TraceSpan* job_span) {
  Job& job = jobs[j];
  OpInput in;
  in.node = job.node->get();
  in.udfs = engine.optimizer_->context().udfs;
  in.recycler = engine.recycler_;
  in.counters = &engine.counters_;
  for (const OpNodePtr& child : in.node->children) {
    TablePtr t;
    std::string recycle_id;
    if (child->kind == OpKind::kScan) {
      auto it = results.find(child.get());
      if (it != results.end()) t = it->second;
      if (in.recycler != nullptr) recycle_id = scan_identity.at(child.get());
    } else {
      t = jobs[job_of.at(child.get())].table;
    }
    if (t == nullptr) {
      // A producer failed (its own status carries the root cause, and it
      // has the lower job index, so it wins the error report).
      job.status = Status::Internal("missing child result for " +
                                   in.node->DisplayName());
      return;
    }
    job.in_bytes += t->ByteSize();
    job.in_rows += t->num_rows();
    in.tables.push_back(std::move(t));
    in.recycle_ids.push_back(std::move(recycle_id));
  }

  TaskCtx ctx;
  ctx.pool = engine.pool_.get();
  ctx.block_size_bytes = engine.dfs_->block_size_bytes();
  ctx.num_reduce_tasks = engine.options_.num_reduce_tasks;
  ctx.trace = trace;
  ctx.parent_span = job_span != nullptr ? job_span->id() : 0;
  ctx.tasks = &job.tasks;
  const auto start = std::chrono::steady_clock::now();
  job.status = RunOperator(in, ctx, &job.op);
  if (!job.status.ok()) return;

  Table& out = job.op.table;
  job.out_bytes = out.ByteSize();
  job.out_rows = out.num_rows();
  job.cost = engine.optimizer_->cost_model().JobCost(
      static_cast<double>(job.in_bytes),
      static_cast<double>(job.op.shuffle_bytes),
      static_cast<double>(job.out_bytes), job.op.map_scalar,
      job.op.reduce_scalar, job.op.has_shuffle);
  job.wall_s = SecondsSince(start);
  out.set_name(job.path);
  job.table = std::make_shared<const Table>(std::move(out));
}

// Stats sampling is a pure function of a job's sealed output, so it runs in
// the job's own tail: under the DAG schedule on the job's pool thread,
// after its consumers are released, so it is off their critical path.
// Finalize folds the times into ExecMetrics in job order. The span keeps
// its parent and, since finalize opens no span before it, its id.
void Engine::Execution::CollectStats(size_t j, obs::TraceSpan* job_span) {
  Job& job = jobs[j];
  if (!engine.options_.retain_views || !engine.options_.collect_stats ||
      job.table == nullptr) {
    return;
  }
  obs::TraceSpan stats_span(trace, job_span != nullptr ? job_span->id() : 0,
                            "stats", "phase");
  const auto start = std::chrono::steady_clock::now();
  job.stats = engine.stats_.Collect(*job.table);
  job.stats_wall_s = SecondsSince(start);
  job.stats_time_s =
      engine.stats_.JobTime(*job.table, engine.optimizer_->cost_model());
}

// Every ordering-sensitive side effect happens here, in job-index (topo)
// order, regardless of the execution schedule: DFS writes, metric and
// JobRun accumulation, and ViewStore insertion (ViewIds are assigned in
// insertion order and must not depend on thread timing).
Status Engine::Execution::FinalizeJob(size_t j, obs::TraceSpan* job_span) {
  Job& job = jobs[j];
  const OpNodePtr& node_ptr = *job.node;
  const OpNode* node = node_ptr.get();
  const OpResult& op = job.op;

  metrics.sim_time_s += job.cost.total_s;
  metrics.bytes_read += job.in_bytes;
  metrics.rows_read += job.in_rows;
  metrics.bytes_shuffled += op.shuffle_bytes;
  metrics.bytes_written += job.out_bytes;
  metrics.jobs += 1;
  metrics.max_task_time_s += op.max_task_s;

  // Materialize the job output to the DFS (Hive materializes every job).
  OPD_RETURN_NOT_OK(engine.dfs_->Write(job.path, job.table));
  results[node] = job.table;

  JobRun jr;
  jr.index = static_cast<int>(j);
  jr.node = node;
  jr.op = node->DisplayName();
  jr.sim_time_s = job.cost.total_s;
  jr.wall_time_s = job.wall_s;
  jr.bytes_read = job.in_bytes;
  jr.bytes_shuffled = op.shuffle_bytes;
  jr.bytes_written = job.out_bytes;
  jr.rows_in = job.in_rows;
  jr.rows_out = job.out_rows;
  jr.map_tasks =
      job.tasks >= op.reduce_tasks ? job.tasks - op.reduce_tasks : 0;
  jr.reduce_tasks = op.reduce_tasks;
  jr.max_task_time_s = op.max_task_s;
  jr.recycle_hits = op.recycle_hits;
  jr.recycle_misses = op.recycle_misses;
  // Cost-model accountability: the optimizer's prediction (cost over
  // estimated rows/bytes, annotated at Prepare) vs the model re-run on the
  // observed byte counts. Finalize order is topological in both schedules,
  // so the EWMA fold is deterministic.
  jr.predicted_cost_s = node->cost.total_s;
  jr.observed_proxy_cost_s = job.cost.total_s;
  jr.residual_pct =
      optimizer::ResidualPct(jr.predicted_cost_s, jr.observed_proxy_cost_s);
  if (engine.accountant_ != nullptr) {
    optimizer::JobResidual res;
    res.op_class = ResidualOpClass(*node);
    res.predicted_s = jr.predicted_cost_s;
    res.observed_s = jr.observed_proxy_cost_s;
    res.residual_pct = jr.residual_pct;
    engine.accountant_->Record(res);
  }
  result.jobs.push_back(std::move(jr));

  if (job_span != nullptr && *job_span) {
    job_span->AddArg("sim_time_s", job.cost.total_s);
    job_span->AddArg("bytes_read", job.in_bytes);
    job_span->AddArg("bytes_shuffled", op.shuffle_bytes);
    job_span->AddArg("bytes_written", job.out_bytes);
    job_span->AddArg("rows_out", job.out_rows);
    job_span->AddArg("max_task_time_s", op.max_task_s);
  }
  const ExecCounters& c = engine.counters_;
  if (c.jobs != nullptr) {
    c.jobs->Inc();
    c.bytes_read->Inc(job.in_bytes);
    c.bytes_shuffled->Inc(op.shuffle_bytes);
    c.bytes_written->Inc(job.out_bytes);
    if (op.skew > 0) c.skew->Observe(op.skew);
  }

  if (engine.options_.retain_views) {
    catalog::ViewDefinition def;
    def.dfs_path = job.path;
    def.afk = node->afk;
    def.out_attrs = node->out_attrs;
    def.schema = node->out_schema;
    def.fingerprint = plan::Fingerprint(node_ptr);
    def.bytes = job.out_bytes;
    def.producer = plan->name();
    if (engine.options_.collect_stats) {
      def.stats = std::move(job.stats);  // sampled by CollectStats
      metrics.stats_wall_time_s += job.stats_wall_s;
      metrics.stats_time_s += job.stats_time_s;
    } else {
      def.stats.rows = static_cast<double>(job.table->num_rows());
      def.stats.avg_row_bytes = job.table->AvgRowBytes();
    }
    // The definition is complete here (data in DFS, stats collected) but is
    // not yet visible: the caller publishes the whole run's views as one
    // atomic batch (ExecResult::pending_views).
    result.pending_views.push_back(std::move(def));
  }
  return Status::OK();
}

// Jobs one at a time in index order, each under its own span.
Status Engine::Execution::RunSerial(uint64_t parent_span) {
  for (size_t j = 0; j < jobs.size(); ++j) {
    obs::TraceSpan job_span(trace, parent_span,
                            "job:" + (*jobs[j].node)->DisplayName(), "job");
    RunJob(j, &job_span);
    OPD_RETURN_NOT_OK(jobs[j].status);
    CollectStats(j, &job_span);
    OPD_RETURN_NOT_OK(FinalizeJob(j, &job_span));
  }
  return Status::OK();
}

// Independent jobs run concurrently on the shared pool: each job is one
// pool task, and finishing it releases its consumers (dependency
// countdown). A failed producer leaves its table null and its consumers
// report "missing child result"; the finalize loop still returns the
// lowest-index (root cause) error.
Status Engine::Execution::RunDag() {
  ThreadPool* pool = engine.pool_.get();
  const size_t n = jobs.size();
  std::vector<std::vector<size_t>> consumers(n);
  auto remaining_deps = std::make_unique<std::atomic<size_t>[]>(n);
  for (size_t j = 0; j < n; ++j) {
    remaining_deps[j].store(jobs[j].producers.size(),
                            std::memory_order_relaxed);
    for (size_t p : jobs[j].producers) consumers[p].push_back(j);
  }
  CountdownLatch all_done(n);
  std::function<void(size_t)> submit_job = [&](size_t j) {
    pool->Submit([&, j] {
      RunJob(j, nullptr);
      for (size_t c : consumers[j]) {
        if (remaining_deps[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          submit_job(c);
        }
      }
      CollectStats(j, nullptr);
      all_done.CountDown();
    });
  };
  for (size_t j = 0; j < n; ++j) {
    if (jobs[j].producers.empty()) submit_job(j);
  }
  all_done.Wait(pool);
  for (size_t j = 0; j < n; ++j) {
    OPD_RETURN_NOT_OK(jobs[j].status);
    OPD_RETURN_NOT_OK(FinalizeJob(j, nullptr));
  }
  return Status::OK();
}

Result<ExecResult> Engine::Execute(plan::Plan* plan, obs::Trace* trace,
                                   uint64_t parent_span) {
  OPD_RETURN_NOT_OK(optimizer_->Prepare(plan));
  Execution run(*this, plan, trace, run_counter_++);
  OPD_RETURN_NOT_OK(run.PlanJobs());
  // Cross-job DAG scheduling is an untraced-only optimization: span ids
  // must be allocated in deterministic order, which requires serial job
  // execution.
  const bool dag_schedule =
      pool_ != nullptr && trace == nullptr && run.jobs.size() > 1;
  OPD_RETURN_NOT_OK(dag_schedule ? run.RunDag() : run.RunSerial(parent_span));

  auto sink = run.results.find(plan->root().get());
  if (sink == run.results.end()) {
    return Status::Internal("plan produced no sink result");
  }
  run.result.table = sink->second;
  run.result.metrics = run.metrics;
  return std::move(run.result);
}

}  // namespace opd::exec
