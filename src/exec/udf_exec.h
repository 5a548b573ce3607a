// Executes a UDF's local-function pipeline over real data, mirroring the MR
// runtime a batch at a time: map functions stream their input batch by
// batch through BatchBuilders; reduce functions receive one key group at a
// time, as a row range of their bucket's grouped batch (udf/local_function.h).

#ifndef OPD_EXEC_UDF_EXEC_H_
#define OPD_EXEC_UDF_EXEC_H_

#include <vector>

#include "common/status.h"
#include "exec/ops.h"
#include "storage/table.h"
#include "udf/udf.h"

namespace opd::exec {

/// Per-stage execution record (used for calibration and shuffle accounting).
struct LfStageRun {
  std::string lf_name;
  udf::LfKind kind = udf::LfKind::kMap;
  uint64_t in_bytes = 0;
  uint64_t out_bytes = 0;
  uint64_t in_rows = 0;
  uint64_t out_rows = 0;
  double wall_seconds = 0;  // real CPU wall time of the user code
  double max_task_seconds = 0;  // slowest task of this stage's wave
  size_t reduce_tasks = 0;  // shuffle buckets of a reduce stage (0 for maps)
};

/// \brief Runs all local functions of `udf` over `input`.
///
/// There is one schedule: each run of consecutive map stages (one or more)
/// fuses into one wave of block-sized tasks, and each reduce stage runs a
/// pipelined shuffle (RunPipelinedShuffle, one producer per input batch)
/// into ctx.num_reduce_tasks buckets (derived from the stage input when 0).
/// Stage row and byte counts are the stages' output batches' num_rows() and
/// ByteSize(). Each fused map group and each reduce stage opens a
/// "stage:<name>" span under ctx.parent_span (fused names joined with '+').
/// Task granularity never changes results: stage outputs are merged in a
/// deterministic order.
///
/// \param[out] output  the final stage's output table (named later by caller)
/// \param[out] stages  optional per-stage accounting
Status RunLocalFunctions(const udf::UdfDefinition& udf,
                         const storage::Table& input,
                         const udf::Params& params, storage::Table* output,
                         std::vector<LfStageRun>* stages = nullptr,
                         const TaskCtx& ctx = {});

}  // namespace opd::exec

#endif  // OPD_EXEC_UDF_EXEC_H_
