// VIEWFINDER (Section 7, Algorithm 4): the stateful per-target searcher.
// Maintains a priority queue of candidate views ordered by OPTCOST,
// incrementally grows the candidate space by merging popped candidates with
// previously-seen ones, and attempts REWRITEENUM only on candidates that
// pass GUESSCOMPLETE.
//
// One deliberate refinement over the paper's text: a *partial* candidate
// (GUESSCOMPLETE false) is prioritized by its read-cost bound rather than ∞,
// so that partial solutions can surface and merge incrementally — this is
// the behaviour the paper's Figure 11 narrative describes ("since they
// failed to produce a rewrite, BFREWRITE begins merging them with views
// that have the next lowest OPTCOST"). Truly irrelevant views (sharing no
// useful attribute with the target) are excluded at INIT.

#ifndef OPD_REWRITE_VIEW_FINDER_H_
#define OPD_REWRITE_VIEW_FINDER_H_

#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "rewrite/candidate.h"
#include "rewrite/rewrite_enum.h"
#include "rewrite/rewriter.h"

namespace opd::rewrite {

/// \brief Incremental best-first searcher for rewrites of one target.
///
/// The finder's own state is the record of its search: INIT counts the
/// views it excludes, every popped candidate keeps what REFINE did with it
/// (in pop order), and the queue left over when the search ends holds the
/// candidates the bound pruned. Callers derive RewriteStats and the
/// TargetDecision from that state once the search is over.
class ViewFinder {
 public:
  /// A popped candidate and what REFINE did with it.
  struct Popped {
    CandidateView view;
    /// Passed to REWRITEENUM (the GUESSCOMPLETE filter let it through, or
    /// the filter is off).
    bool guess_complete = false;
    /// Valid rewrites REWRITEENUM found; 0 when none.
    size_t rewrites_found = 0;
    /// Cost of the cheapest found rewrite (valid when rewrites_found > 0).
    double rewrite_cost = 0;
  };

  ViewFinder() = default;

  /// INIT: seeds the queue with every relevant view in `views`, ordered by
  /// OPTCOST w.r.t. the target, and counts the views that share no useful
  /// attribute with it.
  ///
  /// `useful_sigs` optionally injects the target's precomputed useful
  /// signatures (they depend only on the target AFK, so callers that see
  /// the same subplan repeatedly — BfRewriter keys them by plan
  /// fingerprint — can skip recomputing them here).
  void Init(TargetContext target, EnumDeps deps,
            const std::vector<const catalog::ViewDefinition*>& views,
            std::optional<std::vector<std::string>> useful_sigs =
                std::nullopt);

  /// PEEK: the OPTCOST of the next candidate, or +inf when exhausted.
  double Peek() const;

  /// REFINE: pops the next candidate, grows the space by merging it with the
  /// Seen set, and attempts a rewrite if the candidate passes GUESSCOMPLETE.
  /// Returns a valid rewrite when one is found, nullopt otherwise. Errors are
  /// recorded in `status()`.
  std::optional<EnumResult> Refine();

  const Status& status() const { return status_; }
  bool exhausted() const { return heap_.empty(); }
  /// Popped candidates, in pop order.
  const std::vector<Popped>& popped() const { return seen_; }

  /// Adds this search's effort (pops, REWRITEENUM attempts, rewrites found)
  /// to `stats`.
  void AddStats(RewriteStats* stats) const;

  /// Fills `td` with the search record: the signature-mismatch count, one
  /// decision per popped candidate in pop order, then one pruned_by_bound
  /// decision per candidate still queued, in (OPTCOST, parts) order. The
  /// popped candidate at index `accepted` (or none, when negative) is the
  /// accepted rewrite; every other found rewrite is not_cost_improving.
  /// Sorts the queue in place: call once, when the search is over.
  void RecordDecisions(int accepted, TargetDecision* td);

 private:
  void Push(CandidateView candidate, double floor_cost);

  TargetContext target_;
  EnumDeps deps_;
  Status status_;
  std::vector<std::string> useful_sigs_;
  size_t signature_mismatch_ = 0;

  // Min-heap by (opt_cost, Id) for determinism.
  std::vector<CandidateView> heap_;
  std::vector<Popped> seen_;
  // Signature membership is the only operation; ordered iteration is never
  // needed, so a hash set beats the former std::set.
  std::unordered_set<std::string> enqueued_;
  uint64_t fifo_counter_ = 0;  // ablation ordering
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_VIEW_FINDER_H_
