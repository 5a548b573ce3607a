// The query optimizer: annotation + cardinality estimation + job costing.
//
// Hive "lacks a mature query optimizer and cannot cost UDFs" (Section 2.1);
// like the paper's prototype we implement our own optimizer around the
// MRShare cost model, extended to UDFs via calibrated scalars.

#ifndef OPD_OPTIMIZER_OPTIMIZER_H_
#define OPD_OPTIMIZER_OPTIMIZER_H_

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
#include "plan/annotate.h"
#include "plan/job.h"
#include "plan/plan.h"
#include "udf/udf_registry.h"

namespace opd::optimizer {

/// \brief Annotates plans and produces per-node cost estimates.
class Optimizer {
 public:
  Optimizer(plan::AnnotationContext ctx, CostModel model)
      : ctx_(ctx), model_(model) {}

  /// Annotates (AFK + schema), estimates cardinalities, and costs every node
  /// of `plan`. Idempotent; resets previous estimates.
  Status Prepare(plan::Plan* plan) const;

  /// Total estimated cost of the plan (sum of its jobs' costs); runs Prepare.
  Result<double> PlanCost(plan::Plan* plan) const;

  const CostModel& cost_model() const { return model_; }
  const plan::AnnotationContext& context() const { return ctx_; }

 private:
  Status EstimateNode(plan::OpNode* node) const;
  Status CostNode(plan::OpNode* node) const;

  plan::AnnotationContext ctx_;
  CostModel model_;
};

}  // namespace opd::optimizer

#endif  // OPD_OPTIMIZER_OPTIMIZER_H_
