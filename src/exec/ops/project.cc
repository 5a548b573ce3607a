#include <optional>
#include <vector>

#include "exec/expr/expr_program.h"
#include "exec/ops.h"

namespace opd::exec {

Status RunProject(const OpInput& in, const TaskCtx& /*ctx*/, OpResult* out) {
  const plan::OpNode& node = *in.node;
  const storage::Table& input = *in.tables[0];
  std::vector<size_t> idx;
  for (const std::string& name : node.project) {
    OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(input.schema(), name));
    idx.push_back(i);
  }
  const std::optional<expr::ExprProgram> program = expr::ExprProgram::Compile(
      input.schema().num_columns(), {expr::ExprStep::Project(idx)});
  if (!program.has_value()) {
    return Status::Internal("projection does not compile: " +
                            node.DisplayName());
  }
  const BatchList in_list(input);
  std::vector<storage::RowBatch> out_batches;
  out_batches.reserve(in_list.size());
  expr::EvalScratch scratch;
  for (const storage::RowBatch& b : *in_list.batches) {
    out_batches.push_back(program->Run(b, &scratch));
  }
  out->table = storage::Table::FromBatches("", node.out_schema,
                                           std::move(out_batches));
  return Status::OK();
}

}  // namespace opd::exec
