#include "rewrite/bf_rewrite.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "plan/fingerprint.h"
#include "plan/job.h"
#include "rewrite/candidate.h"
#include "rewrite/view_finder.h"

namespace opd::rewrite {

namespace {

constexpr double kEps = 1e-9;

/// Per-run search state (Algorithms 1-3 operate over this).
struct SearchState {
  const plan::JobDag* dag = nullptr;
  std::vector<plan::OpNodePtr> best_plan;
  std::vector<double> best_cost;
  std::vector<ViewFinder> finders;
  /// Per target, the index in its finder's popped() of the last candidate
  /// whose rewrite improved the target (the accepted one), or -1.
  std::vector<int> accepted;
  RewriteStats* stats = nullptr;
  std::chrono::steady_clock::time_point start;

  double Elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  /// Composes a plan for job i from its original operator and the current
  /// best plans of its producers (used by PROPBESTREWRITE).
  plan::OpNodePtr Compose(int i) const {
    const plan::Job& job = dag->job(i);
    auto node = std::make_shared<plan::OpNode>();
    const plan::OpNode& orig = *job.op;
    node->kind = orig.kind;
    node->table = orig.table;
    node->view_id = orig.view_id;
    node->project = orig.project;
    node->filter = orig.filter;
    node->join = orig.join;
    node->group = orig.group;
    node->udf = orig.udf;
    size_t producer_idx = 0;
    for (const plan::OpNodePtr& child : orig.children) {
      if (child->kind == plan::OpKind::kScan) {
        node->children.push_back(child);
      } else {
        node->children.push_back(best_plan[job.producers[producer_idx++]]);
      }
    }
    return node;
  }

  double ComposedCost(int i) const {
    const plan::Job& job = dag->job(i);
    double cost = job.op->cost.total_s;
    for (int p : job.producers) cost += best_cost[p];
    return cost;
  }

  void RecordSinkImprovement() {
    stats->convergence.emplace_back(Elapsed(), best_cost[dag->sink()]);
  }

  // Algorithm 3: PROPBESTREWRITE.
  void PropBestRewrite(int i) {
    double cost = ComposedCost(i);
    if (cost + kEps < best_cost[i]) {
      best_cost[i] = cost;
      best_plan[i] = Compose(i);
      if (i == dag->sink()) RecordSinkImprovement();
      for (int k : dag->job(i).consumers) PropBestRewrite(k);
    }
  }

  // Algorithm 2: REFINETARGET.
  Status RefineTarget(int i) {
    auto result = finders[i].Refine();
    OPD_RETURN_NOT_OK(finders[i].status());
    const bool improves =
        result.has_value() && result->cost + kEps < best_cost[i];
    if (improves) {
      accepted[i] = static_cast<int>(finders[i].popped().size()) - 1;
      best_cost[i] = result->cost;
      best_plan[i] = result->plan.root();
      if (i == dag->sink()) RecordSinkImprovement();
      for (int k : dag->job(i).consumers) PropBestRewrite(k);
    }
    return Status::OK();
  }

  // Algorithm 2: FINDNEXTMINTARGET. Returns (target index or -1, bound d).
  std::pair<int, double> FindNextMinTarget(int i) {
    double d_prime = 0;
    int w_min = -1;
    double d_min = std::numeric_limits<double>::infinity();
    for (int j : dag->job(i).producers) {
      auto [k, d] = FindNextMinTarget(j);
      d_prime += d;
      if (d < d_min && k != -1) {
        w_min = k;
        d_min = d;
      }
    }
    d_prime += dag->job(i).op->cost.total_s;
    const double d_i = finders[i].Peek();
    if (std::min(d_prime, d_i) >= best_cost[i] - kEps) {
      return {-1, best_cost[i]};
    }
    if (d_prime < d_i) {
      // With eager propagation, d' < BESTPLANCOST_i implies some producer
      // target is refinable; the defensive -1 covers numeric edge cases.
      return {w_min, d_prime};
    }
    return {i, d_i};
  }
};

/// Mirrors one search's effort into the process-wide registry, so
/// cumulative search effort is visible across queries.
void PublishSearchCounters(const RewriteStats& stats, uint64_t memo_hits,
                           uint64_t memo_misses) {
  auto& registry = obs::MetricRegistry::Global();
  static obs::Counter& candidates =
      registry.counter("rewrite.candidates_considered");
  static obs::Counter& attempts = registry.counter("rewrite.attempts");
  static obs::Counter& found = registry.counter("rewrite.found");
  static obs::Counter& hits = registry.counter("rewrite.viewfinder.memo_hit");
  static obs::Counter& misses =
      registry.counter("rewrite.viewfinder.memo_miss");
  candidates.Inc(stats.candidates_considered);
  attempts.Inc(stats.rewrite_attempts);
  found.Inc(stats.rewrites_found);
  hits.Inc(memo_hits);
  misses.Inc(memo_misses);
}

}  // namespace

Result<RewriteOutcome> BfRewriter::Rewrite(plan::Plan* plan,
                                           obs::Trace* trace,
                                           uint64_t parent_span) const {
  // Single-tenant path: rewrite against everything currently published.
  return Rewrite(plan, views_->Snapshot(), trace, parent_span);
}

Result<RewriteOutcome> BfRewriter::Rewrite(plan::Plan* plan,
                                           const catalog::ViewSnapshot& snapshot,
                                           obs::Trace* trace,
                                           uint64_t parent_span) const {
  obs::TraceSpan rewrite_span(trace, parent_span, "rewrite", "rewrite");
  OPD_RETURN_NOT_OK(optimizer_->Prepare(plan));
  OPD_ASSIGN_OR_RETURN(plan::JobDag dag, plan::JobDag::Build(*plan));
  const size_t n = dag.size();

  RewriteOutcome outcome;
  SearchState state;
  state.dag = &dag;
  state.stats = &outcome.stats;
  state.start = std::chrono::steady_clock::now();

  EnumDeps deps;
  deps.optimizer = optimizer_;
  deps.views = views_;
  deps.udfs = optimizer_->context().udfs;
  deps.options = options_;

  const auto all_views = snapshot.All();
  state.best_plan.resize(n);
  state.best_cost.resize(n);
  state.finders.resize(n);
  state.accepted.assign(n, -1);
  outcome.decisions.targets.resize(n);
  uint64_t memo_hits = 0;
  for (size_t i = 0; i < n; ++i) {
    state.best_plan[i] = dag.job(i).op;
    state.best_cost[i] = dag.TargetCost(i);
    TargetDecision& td = outcome.decisions.targets[i];
    td.target_index = static_cast<int>(i);
    td.target_op = dag.job(i).op->DisplayName();
    td.original_cost = state.best_cost[i];
    // Target-side setup is memoized on the subplan fingerprint (see
    // bf_rewrite.h): repeated structurally identical targets skip the
    // TargetContext derivation and the useful-signature computation.
    const std::string fp = plan::Fingerprint(dag.job(i).op);
    TargetMemoEntry entry;
    bool hit = false;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      auto it = target_memo_.find(fp);
      if (it != target_memo_.end()) {
        entry = it->second;
        hit = true;
      }
    }
    if (!hit) {
      entry.target = MakeTargetContext(dag.job(i).op);
      entry.useful_sigs = UsefulSignatures(entry.target.afk);
      std::lock_guard<std::mutex> lock(memo_mu_);
      target_memo_.emplace(fp, entry);
    }
    memo_hits += hit ? 1 : 0;
    state.finders[i].Init(std::move(entry.target), deps, all_views,
                          std::move(entry.useful_sigs));
  }
  outcome.original_cost = state.best_cost[dag.sink()];
  outcome.stats.convergence.emplace_back(0.0, outcome.original_cost);

  // Algorithm 1: main loop.
  constexpr size_t kMaxIterations = 10'000'000;
  Status search_status;
  for (size_t iter = 0; iter < kMaxIterations; ++iter) {
    auto [target, d] = state.FindNextMinTarget(dag.sink());
    if (target == -1) break;
    obs::TraceSpan round_span(trace, rewrite_span.id(),
                              "round:" + std::to_string(iter), "rewrite");
    round_span.AddArg("target", static_cast<int64_t>(target));
    round_span.AddArg("peek_cost", d);
    search_status = state.RefineTarget(target);
    if (!search_status.ok()) break;
    round_span.AddArg("best_cost", state.best_cost[dag.sink()]);
  }

  // The search effort, derived from the finders, is published to the
  // process-wide registry once per search, failed ones included.
  for (const ViewFinder& finder : state.finders) {
    finder.AddStats(&outcome.stats);
  }
  PublishSearchCounters(outcome.stats, memo_hits, n - memo_hits);
  OPD_RETURN_NOT_OK(search_status);

  for (size_t i = 0; i < n; ++i) {
    TargetDecision& td = outcome.decisions.targets[i];
    td.best_cost = state.best_cost[i];
    td.predicted_benefit_s = std::max(td.original_cost - td.best_cost, 0.0);
    state.finders[i].RecordDecisions(state.accepted[i], &td);
  }
  outcome.plan = plan::Plan(state.best_plan[dag.sink()], plan->name());
  outcome.est_cost = state.best_cost[dag.sink()];
  outcome.improved = outcome.est_cost + kEps < outcome.original_cost;
  outcome.stats.runtime_s = state.Elapsed();
  if (rewrite_span) {
    rewrite_span.AddArg("original_cost", outcome.original_cost);
    rewrite_span.AddArg("est_cost", outcome.est_cost);
    rewrite_span.AddArg("improved", outcome.improved);
    rewrite_span.AddArg("candidates",
                        static_cast<uint64_t>(outcome.stats.candidates_considered));
  }
  return outcome;
}

}  // namespace opd::rewrite
