// A small reference interpreter for annotated plans: the test oracle the
// engine is checked against.
//
// It shares no code with src/exec/. It runs serially, one Value at a time:
// filters call afk::EvalCmp (or the opaque predicate) per row, joins are
// nested loops over Value equality, group-by folds rows into a std::map in
// input-row order (so double sums round exactly as a serial pass does), and
// UDF local functions run one row (map) or one key group (reduce) at a
// time, through the oracle's own per-row bodies (reference_udfs.h). Results come back as plain row vectors; tests compare them with the
// engine's as sorted multisets (SameRows), since the engine's row order is
// an implementation choice.
//
// Semantics follow storage::Value: numerics compare through their double
// value, null == null (so null join keys match each other), and null sorts
// below every other value. Aggregates count every row of a group, sum/avg
// read nulls as 0, and min/max order by Value (a group containing a null
// has min NULL). NaN keys are out of scope: the engine's flat tables match
// equal NaN bit patterns, Value == never matches NaN.

#ifndef OPD_TESTS_REFERENCE_EXEC_H_
#define OPD_TESTS_REFERENCE_EXEC_H_

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/view_store.h"
#include "common/status.h"
#include "plan/plan.h"
#include "session/session.h"
#include "storage/dfs.h"
#include "storage/table.h"
#include "udf/udf_registry.h"

namespace opd::reference {

using Rows = std::vector<storage::Row>;

/// Resolves a scan node to the table it reads.
using ScanFn =
    std::function<Result<storage::TablePtr>(const plan::OpNode& scan)>;

/// Evaluates the plan rooted at `root`. Nodes must be annotated (the
/// optimizer's Prepare fills `out_schema`, which names join outputs and
/// types aggregate results).
Result<Rows> Evaluate(const plan::OpNodePtr& root, const ScanFn& scan,
                      const udf::UdfRegistry& udfs);

/// Runs the local functions of `def` over `input` (see the file comment).
Result<Rows> EvaluateUdf(const udf::UdfDefinition& def,
                         const storage::Table& input,
                         const udf::Params& params);

/// Reads base tables through `catalog` and views through `views` from
/// `dfs`, without metering the reads.
ScanFn StoreScans(const catalog::Catalog& catalog,
                  const catalog::ViewStore& views, const storage::Dfs& dfs);

/// Annotates `plan` against `session` and evaluates it as written (no
/// rewrite).
Result<Rows> EvaluatePlan(Session& session, plan::Plan plan);

/// Parses `oql` and evaluates its result plan (see EvaluatePlan).
Result<Rows> EvaluateOql(Session& session, const std::string& oql);

/// Succeeds iff `actual` and `expected` hold the same rows with the same
/// multiplicities; otherwise names the first differing sorted row.
::testing::AssertionResult SameRows(const Rows& expected, const Rows& actual);

}  // namespace opd::reference

#endif  // OPD_TESTS_REFERENCE_EXEC_H_
