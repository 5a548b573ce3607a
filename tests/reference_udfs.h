// Per-row bodies of UDF local functions for the reference interpreter.
//
// The engine runs local functions a batch at a time (udf/local_function.h).
// The oracle instead runs each local function as the paper states it: a map
// body sees one row, a reduce body one key group, both as plain
// storage::Rows read by column name. The bodies here are written
// independently of the engine's: the builtin UDFs' per-row bodies are built
// on the scalar helpers of udf/builtin_udfs.h (LexiconScore, TokenizeWords,
// ParseLatLon, GeoTileId, ParseLogMeta, JaccardSimilarity), and a test that
// defines its own UDF registers that UDF's per-row bodies by name.

#ifndef OPD_TESTS_REFERENCE_UDFS_H_
#define OPD_TESTS_REFERENCE_UDFS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "udf/local_function.h"

namespace opd::reference {

using Rows = std::vector<storage::Row>;

/// The per-row body of one local function. `map` is set for a map stage
/// and emits 0..n rows per input row; `reduce` is set for a reduce stage
/// and receives one key group's rows in input order. `in` is the stage's
/// input schema.
struct RowBody {
  std::function<void(const storage::Row& row, const storage::Schema& in,
                     const udf::Params& params, Rows* out)>
      map;
  std::function<void(const Rows& group, const storage::Schema& in,
                     const udf::Params& params, Rows* out)>
      reduce;
};

/// The per-row bodies of UDF `udf_name`'s local functions, in stage order:
/// the twelve builtins, or what RegisterRowBodies registered.
Result<std::vector<RowBody>> RowBodies(const std::string& udf_name);

/// Registers (or replaces) the per-row bodies of a test-defined UDF.
void RegisterRowBodies(const std::string& udf_name,
                       std::vector<RowBody> bodies);

/// The cell named `column` of `row` under `schema` (which must have it).
const storage::Value& Cell(const storage::Row& row,
                           const storage::Schema& schema,
                           const std::string& column);

}  // namespace opd::reference

#endif  // OPD_TESTS_REFERENCE_UDFS_H_
