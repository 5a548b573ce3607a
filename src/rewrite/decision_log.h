// Structured record of every decision the rewrite search makes: how many
// views INIT excluded for each target, which candidate views reached the
// queue, why each was rejected (machine-readable reason codes), the OPTCOST
// ordering the search followed, and the chosen rewrite with its predicted
// benefit. This is the audit trail behind EXPLAIN REWRITE and the decision
// counts exported to the bench trajectory — the paper claims BFREWRITE finds
// the *minimum-cost* rewrite; the log is how that claim becomes inspectable
// per query.
//
// The search is serial (one ViewFinder refined at a time), so the log is
// deterministic: byte-identical across thread counts and execution modes.

#ifndef OPD_REWRITE_DECISION_LOG_H_
#define OPD_REWRITE_DECISION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace opd::rewrite {

/// Why a candidate did not become the target's rewrite. The string codes
/// (RejectReasonCode) are the stable machine-readable vocabulary used by the
/// JSON export and the bench records.
enum class RejectReason {
  kNone = 0,            ///< not rejected (the accepted candidate)
  kSignatureMismatch,   ///< shares no useful attribute with the target
                        ///< (INIT); counted per target, never a record
  kAfkContainment,      ///< GUESSCOMPLETE false, or REWRITEENUM found no
                        ///< exact-equivalence compensation
  kNotCostImproving,    ///< valid rewrite, but not cheaper than the best
  kPrunedByBound,       ///< never refined: the search bound terminated first
};

/// Stable snake_case code for `reason` ("accepted" for kNone).
const char* RejectReasonCode(RejectReason reason);

/// One candidate view (or merge of views) that reached a target's queue.
struct CandidateDecision {
  /// Canonical candidate id: "+"-joined sorted view ids, e.g. "3+7".
  std::string candidate_id;
  int num_parts = 1;
  /// OPTCOST estimate w.r.t. the target.
  double opt_cost = 0;
  bool guess_complete = false;
  bool rewrite_found = false;
  /// Cost of the found rewrite (valid when `rewrite_found`).
  double rewrite_cost = 0;
  RejectReason reject = RejectReason::kNone;
};

/// The full decision record for one rewrite target (one job of the DAG).
struct TargetDecision {
  int target_index = 0;
  std::string target_op;
  double original_cost = 0;
  /// Best target cost when the search ended (== original_cost when the
  /// target kept its plan).
  double best_cost = 0;
  /// Candidate id of the accepted rewrite; empty when the target kept its
  /// original plan (a producer rewrite may still have lowered best_cost).
  std::string chosen_id;
  double predicted_benefit_s = 0;
  /// Views INIT excluded because they share no useful attribute with the
  /// target (RejectReason::kSignatureMismatch).
  size_t signature_mismatch = 0;
  /// Decisions in search order: refinements in OPTCOST order, then
  /// bound-pruned leftovers.
  std::vector<CandidateDecision> candidates;
};

/// Aggregate decision counts (the bench-record summary).
struct DecisionCounts {
  size_t candidates = 0;
  size_t accepted = 0;
  size_t signature_mismatch = 0;
  size_t afk_containment = 0;
  size_t not_cost_improving = 0;
  size_t pruned_by_bound = 0;
};

/// \brief Everything the rewrite search decided, per target.
struct DecisionLog {
  std::vector<TargetDecision> targets;

  DecisionCounts Counts() const;

  /// Human-readable rendering (the body of EXPLAIN REWRITE). Deterministic.
  std::string ToText() const;
  /// Machine-readable export: {"targets":[...],"counts":{...}}.
  std::string ToJson() const;
};

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_DECISION_LOG_H_
