#include <functional>
#include <optional>
#include <vector>

#include "exec/expr/expr_program.h"
#include "exec/ops.h"

namespace opd::exec {

using storage::RowBatch;
using storage::Value;

Status RunFilter(const OpInput& in, const TaskCtx& ctx, OpResult* out) {
  const plan::OpNode& node = *in.node;
  const storage::Table& input = *in.tables[0];
  const plan::FilterCond& cond = node.filter;
  const BatchList in_list(input);
  std::function<RowBatch(const RowBatch&)> filter_batch;
  std::optional<expr::ExprProgram> program;
  const udf::PredicateFn* fn = nullptr;
  std::vector<size_t> idx;
  udf::Params params;
  if (cond.kind == plan::FilterCond::Kind::kCompare) {
    OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(input.schema(), cond.column));
    program = expr::ExprProgram::Compile(
        input.schema().num_columns(),
        {expr::ExprStep::FilterCompare(i, cond.op, cond.literal)});
    if (!program.has_value()) {
      return Status::Internal("filter does not compile: " +
                              node.DisplayName());
    }
    // String predicates bind per-dictionary verdict bitmaps once, serially,
    // before the parallel phase; each task then runs branchless mask
    // kernels + one gather.
    program->BindDictionaries(*in_list.batches);
    filter_batch = [&](const RowBatch& b) {
      expr::EvalScratch scratch;
      return program->Run(b, &scratch);
    };
  } else {
    // Opaque predicate UDFs are per-row black boxes: each row's arguments
    // are read from the batch cells and the predicate's verdicts form the
    // batch's selection vector.
    OPD_ASSIGN_OR_RETURN(fn, in.udfs->FindPredicate(cond.fn_name));
    for (const std::string& name : cond.arg_columns) {
      OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(input.schema(), name));
      idx.push_back(i);
    }
    // Opaque predicate params are pre-bound strings.
    if (!cond.params.empty()) params["params"] = Value(cond.params);
    filter_batch = [&](const RowBatch& b) {
      std::vector<Value> args(idx.size());
      std::vector<uint32_t> sel;
      sel.reserve(b.num_rows());
      for (size_t r = 0; r < b.num_rows(); ++r) {
        for (size_t a = 0; a < idx.size(); ++a) {
          args[a] = b.column(idx[a]).GetValue(r);
        }
        if ((*fn)(args, params)) sel.push_back(static_cast<uint32_t>(r));
      }
      return b.Gather(sel);
    };
  }
  std::vector<RowBatch> out_batches(in_list.size());
  OPD_RETURN_NOT_OK(RunPhase(
      ctx, "pipeline", in_list.size(),
      [&](size_t t) -> Status {
        out_batches[t] = filter_batch(in_list.batch(t));
        return Status::OK();
      },
      &out->max_task_s));
  out->table = storage::Table::FromBatches("", node.out_schema,
                                           std::move(out_batches));
  return Status::OK();
}

}  // namespace opd::exec
