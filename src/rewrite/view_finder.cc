#include "rewrite/view_finder.h"

#include <algorithm>

#include "rewrite/guess_complete.h"
#include "rewrite/merge.h"
#include "rewrite/opt_cost.h"

namespace opd::rewrite {

namespace {

struct HeapGreater {
  bool operator()(const CandidateView& a, const CandidateView& b) const {
    if (a.opt_cost != b.opt_cost) return a.opt_cost > b.opt_cost;
    return a.parts > b.parts;  // deterministic tie-break
  }
};

}  // namespace

void ViewFinder::Init(TargetContext target, EnumDeps deps,
                      const std::vector<const catalog::ViewDefinition*>& views,
                      std::optional<std::vector<std::string>> useful_sigs) {
  target_ = std::move(target);
  deps_ = std::move(deps);
  useful_sigs_ = useful_sigs ? std::move(*useful_sigs)
                             : UsefulSignatures(target_.afk);
  signature_mismatch_ = 0;
  heap_.clear();
  seen_.clear();
  enqueued_.clear();
  for (const catalog::ViewDefinition* def : views) {
    if (!IsRelevant(def->afk, useful_sigs_)) {
      ++signature_mismatch_;
      continue;
    }
    CandidateView c = MakeBaseCandidate(*def);
    c.coverage = ComputeCoverage(c.afk, useful_sigs_);
    Push(std::move(c), 0.0);
  }
}

void ViewFinder::Push(CandidateView candidate, double floor_cost) {
  const std::string id = candidate.Id();
  if (!enqueued_.insert(id).second) return;
  if (deps_.options.use_optcost_ordering) {
    candidate.opt_cost = std::max(
        OptCost(target_.afk, candidate, deps_.optimizer->cost_model()),
        floor_cost);
  } else {
    // Ablation: FIFO order, no cost-based pruning signal.
    candidate.opt_cost = static_cast<double>(fifo_counter_++) * 1e-9;
  }
  heap_.push_back(std::move(candidate));
  std::push_heap(heap_.begin(), heap_.end(), HeapGreater{});
}

double ViewFinder::Peek() const {
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().opt_cost;
}

std::optional<EnumResult> ViewFinder::Refine() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{});
  CandidateView v = std::move(heap_.back());
  heap_.pop_back();

  // Grow the space: merge v with every previously-seen candidate. MiniCon-
  // style pruning: a merge is only created when each side contributes a
  // useful attribute the other lacks (otherwise the merged candidate can
  // never enable a rewrite its parts could not). New candidates inherit v's
  // OPTCOST as a floor, preserving the monotone exploration order
  // Algorithm 4 relies on.
  for (const Popped& p : seen_) {
    const CandidateView& s = p.view;
    Coverage combined = CoverageUnion(v.coverage, s.coverage);
    if (CoverageEqual(combined, v.coverage) ||
        CoverageEqual(combined, s.coverage)) {
      continue;  // one side subsumes the other's contribution
    }
    auto merged = MergeCandidates(v, s, deps_.options.max_views_per_rewrite);
    if (merged.has_value()) {
      merged->coverage = std::move(combined);
      Push(std::move(*merged), v.opt_cost);
    }
  }
  seen_.push_back(Popped{std::move(v)});
  Popped& popped = seen_.back();

  if (deps_.options.use_guess_complete_filter &&
      !GuessComplete(target_.afk, popped.view.afk)) {
    return std::nullopt;
  }
  popped.guess_complete = true;
  auto result = RewriteEnum(target_, popped.view, deps_);
  if (!result.ok()) {
    status_ = result.status();
    return std::nullopt;
  }
  if (result.value().has_value()) {
    popped.rewrites_found = result.value()->rewrites_found;
    popped.rewrite_cost = result.value()->cost;
  }
  return std::move(result).value();
}

void ViewFinder::AddStats(RewriteStats* stats) const {
  stats->candidates_considered += seen_.size();
  for (const Popped& p : seen_) {
    stats->rewrite_attempts += p.guess_complete ? 1 : 0;
    stats->rewrites_found += p.rewrites_found;
  }
}

void ViewFinder::RecordDecisions(int accepted, TargetDecision* td) {
  td->signature_mismatch = signature_mismatch_;
  td->candidates.reserve(seen_.size() + heap_.size());
  for (size_t i = 0; i < seen_.size(); ++i) {
    const Popped& p = seen_[i];
    CandidateDecision cd;
    cd.candidate_id = p.view.Id();
    cd.num_parts = static_cast<int>(p.view.NumParts());
    cd.opt_cost = p.view.opt_cost;
    cd.guess_complete = p.guess_complete;
    cd.rewrite_found = p.rewrites_found > 0;
    cd.rewrite_cost = p.rewrite_cost;
    if (static_cast<int>(i) == accepted) {
      td->chosen_id = cd.candidate_id;
    } else {
      // A found rewrite that is not the accepted one did not (or no longer
      // does) improve the target. Without one, GUESSCOMPLETE said no, or
      // said maybe and the exact enumeration found no equivalence.
      cd.reject = cd.rewrite_found ? RejectReason::kNotCostImproving
                                   : RejectReason::kAfkContainment;
    }
    td->candidates.push_back(std::move(cd));
  }
  std::sort(heap_.begin(), heap_.end(),
            [](const CandidateView& a, const CandidateView& b) {
              if (a.opt_cost != b.opt_cost) return a.opt_cost < b.opt_cost;
              return a.parts < b.parts;
            });
  for (const CandidateView& v : heap_) {
    CandidateDecision cd;
    cd.candidate_id = v.Id();
    cd.num_parts = static_cast<int>(v.NumParts());
    cd.opt_cost = v.opt_cost;
    cd.reject = RejectReason::kPrunedByBound;
    td->candidates.push_back(std::move(cd));
  }
}

}  // namespace opd::rewrite
