// Test helper for suites that drive an exec::Engine directly. The engine
// hands each run's retained views back in ExecResult::pending_views and
// opd::Server publishes them at query completion; ExecuteAndPublish does the
// same, so these suites see views exactly as served queries leave them.

#ifndef OPD_TESTS_EXECUTE_AND_PUBLISH_H_
#define OPD_TESTS_EXECUTE_AND_PUBLISH_H_

#include <utility>

#include "catalog/view_store.h"
#include "common/status.h"
#include "exec/engine.h"
#include "plan/plan.h"

namespace opd::testing_util {

/// Executes `plan` and publishes its retained views to `views` as one
/// atomic batch, counting the added ones in `metrics.views_created`.
inline Result<exec::ExecResult> ExecuteAndPublish(exec::Engine* engine,
                                                  catalog::ViewStore* views,
                                                  plan::Plan* plan) {
  OPD_ASSIGN_OR_RETURN(exec::ExecResult result, engine->Execute(plan));
  for (const auto& pub : views->PublishBatch(std::move(result.pending_views))) {
    if (pub.added) ++result.metrics.views_created;
  }
  result.pending_views.clear();
  return result;
}

}  // namespace opd::testing_util

#endif  // OPD_TESTS_EXECUTE_AND_PUBLISH_H_
