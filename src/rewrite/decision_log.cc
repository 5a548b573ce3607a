#include "rewrite/decision_log.h"

#include <cstdio>

#include "common/json_writer.h"

namespace opd::rewrite {

namespace {

/// Compact deterministic cost rendering ("12.5s"); doubles are %.6g, the
/// same convention JsonWriter uses.
std::string FormatCost(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6gs", seconds);
  return buf;
}

std::string DescribeCandidate(const CandidateDecision& c) {
  std::string out;
  switch (c.reject) {
    case RejectReason::kSignatureMismatch:
      out = "rejected: signature_mismatch (no useful attributes)";
      break;
    case RejectReason::kPrunedByBound:
      out = "optcost=" + FormatCost(c.opt_cost) +
            "  rejected: pruned_by_bound (never refined)";
      break;
    case RejectReason::kAfkContainment:
      out = "optcost=" + FormatCost(c.opt_cost) +
            (c.guess_complete ? "  enum=no_equivalence"
                              : "  guess_complete=no") +
            "  rejected: afk_containment";
      break;
    case RejectReason::kNotCostImproving:
      out = "optcost=" + FormatCost(c.opt_cost) +
            "  rewrite=" + FormatCost(c.rewrite_cost) +
            "  rejected: not_cost_improving";
      break;
    case RejectReason::kNone:
      out = "optcost=" + FormatCost(c.opt_cost) +
            "  rewrite=" + FormatCost(c.rewrite_cost) + "  accepted";
      break;
  }
  return out;
}

}  // namespace

const char* RejectReasonCode(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "accepted";
    case RejectReason::kSignatureMismatch:
      return "signature_mismatch";
    case RejectReason::kAfkContainment:
      return "afk_containment";
    case RejectReason::kNotCostImproving:
      return "not_cost_improving";
    case RejectReason::kPrunedByBound:
      return "pruned_by_bound";
  }
  return "unknown";
}

DecisionCounts DecisionLog::Counts() const {
  DecisionCounts counts;
  for (const TargetDecision& t : targets) {
    counts.candidates += t.signature_mismatch;
    counts.signature_mismatch += t.signature_mismatch;
    for (const CandidateDecision& c : t.candidates) {
      counts.candidates += 1;
      switch (c.reject) {
        case RejectReason::kNone:
          counts.accepted += 1;
          break;
        case RejectReason::kSignatureMismatch:
          counts.signature_mismatch += 1;
          break;
        case RejectReason::kAfkContainment:
          counts.afk_containment += 1;
          break;
        case RejectReason::kNotCostImproving:
          counts.not_cost_improving += 1;
          break;
        case RejectReason::kPrunedByBound:
          counts.pruned_by_bound += 1;
          break;
      }
    }
  }
  return counts;
}

std::string DecisionLog::ToText() const {
  std::string out;
  for (const TargetDecision& t : targets) {
    out += "[target " + std::to_string(t.target_index) + "] " + t.target_op +
           "\n";
    out += "  original " + FormatCost(t.original_cost) + " -> best " +
           FormatCost(t.best_cost) + "  chosen: ";
    if (!t.chosen_id.empty()) {
      out += "view(" + t.chosen_id + ")  predicted benefit " +
             FormatCost(t.predicted_benefit_s);
    } else if (t.best_cost + 1e-9 < t.original_cost) {
      out += "original operator over rewritten producers";
    } else {
      out += "original plan";
    }
    out += "\n";
    if (t.signature_mismatch > 0) {
      out += "    " + std::to_string(t.signature_mismatch) +
             " views  rejected: signature_mismatch (no useful attributes)\n";
    }
    for (const CandidateDecision& c : t.candidates) {
      std::string id = c.candidate_id;
      if (id.size() < 12) id.append(12 - id.size(), ' ');
      out += "    " + id + "  " + DescribeCandidate(c) + "\n";
    }
  }
  const DecisionCounts counts = Counts();
  out += "candidates: " + std::to_string(counts.candidates) +
         "  accepted: " + std::to_string(counts.accepted) +
         "  signature_mismatch: " + std::to_string(counts.signature_mismatch) +
         "  afk_containment: " + std::to_string(counts.afk_containment) +
         "  not_cost_improving: " +
         std::to_string(counts.not_cost_improving) +
         "  pruned_by_bound: " + std::to_string(counts.pruned_by_bound) +
         "\n";
  return out;
}

std::string DecisionLog::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("targets").BeginArray();
  for (const TargetDecision& t : targets) {
    w.BeginObject();
    w.Key("index").Int(t.target_index);
    w.Key("op").String(t.target_op);
    w.Key("original_cost_s").Double(t.original_cost);
    w.Key("best_cost_s").Double(t.best_cost);
    w.Key("chosen").String(t.chosen_id);
    w.Key("predicted_benefit_s").Double(t.predicted_benefit_s);
    w.Key("signature_mismatch").UInt(t.signature_mismatch);
    w.Key("candidates").BeginArray();
    for (const CandidateDecision& c : t.candidates) {
      w.BeginObject();
      w.Key("id").String(c.candidate_id);
      w.Key("parts").Int(c.num_parts);
      w.Key("opt_cost_s").Double(c.opt_cost);
      w.Key("guess_complete").Bool(c.guess_complete);
      w.Key("rewrite_found").Bool(c.rewrite_found);
      if (c.rewrite_found) w.Key("rewrite_cost_s").Double(c.rewrite_cost);
      w.Key("decision").String(RejectReasonCode(c.reject));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  const DecisionCounts counts = Counts();
  w.Key("counts").BeginObject();
  w.Key("candidates").UInt(counts.candidates);
  w.Key("accepted").UInt(counts.accepted);
  w.Key("signature_mismatch").UInt(counts.signature_mismatch);
  w.Key("afk_containment").UInt(counts.afk_containment);
  w.Key("not_cost_improving").UInt(counts.not_cost_improving);
  w.Key("pruned_by_bound").UInt(counts.pruned_by_bound);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace opd::rewrite
