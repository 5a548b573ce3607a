// UDF cost calibration (Section 4.2): "the first time the UDF is added to
// the system, we execute the UDF on a 1% uniform random sample of the input
// data to determine the scalar values" for Cm and Cr.

#ifndef OPD_OPTIMIZER_CALIBRATION_H_
#define OPD_OPTIMIZER_CALIBRATION_H_

#include "common/status.h"
#include "storage/table.h"
#include "udf/udf_registry.h"

namespace opd::optimizer {

struct CalibrationOptions {
  double sample_fraction = 0.01;
  uint64_t seed = 7;
  /// Scalars are clamped into [min_scalar, max_scalar]. The lower bound of
  /// 1.0 preserves the OPTCOST invariant: the baseline (cheapest-op) CPU
  /// rate is the floor of any calibrated local function.
  double min_scalar = 1.0;
  double max_scalar = 64.0;
};

/// Draws a uniform random sample of `fraction` of the rows: one seeded
/// Bernoulli draw per row in row order, or the first 16 rows when no draw
/// hits. The sample's batches are gathered from the input's, so the input's
/// rows are never built.
storage::Table SampleTable(const storage::Table& table, double fraction,
                           uint64_t seed);

/// \brief Calibrates one UDF against a representative input.
///
/// Runs the UDF's local functions on a sample of `input`, measures the real
/// per-byte processing rate of the map and reduce stages relative to a
/// baseline pass, and sets `map_scalar` / `reduce_scalar` /
/// `calibrated_expansion` on the definition.
Status CalibrateUdf(udf::UdfDefinition* udf, const storage::Table& input,
                    const udf::Params& params,
                    const CalibrationOptions& options = {});

/// Measures the baseline per-byte throughput (bytes/sec) of a trivial
/// attribute-copying pass over `table`'s batches, cell by cell into new
/// columns — the denominator for scalars, in the representation local
/// functions run in.
double MeasureBaselineThroughput(const storage::Table& table);

}  // namespace opd::optimizer

#endif  // OPD_OPTIMIZER_CALIBRATION_H_
