// Local functions: the map/reduce building blocks of a UDF (Section 3.1).
//
// The MR framework makes map/reduce functions stateless over a single tuple
// (map) or a single key-group (reduce); the paper calls these *local
// functions*. A local function performs some combination of the three
// operation types:
//   (1) discard/add attributes, (2) discard tuples by filters,
//   (3) group tuples on a common key.
//
// Local functions run a batch at a time. A map body reads one input
// RowBatch and writes its output rows into a BatchBuilder; a reduce body
// reads one key group as a row range of a batch that holds its bucket's
// groups one after another. Everything a body needs besides the batch (the
// input columns it reads, the invocation's parameters) is resolved once per
// stage into an LfContext. The per-tuple and per-group semantics of the
// paper are unchanged: a map body treats each input row on its own, a
// reduce body sees exactly one group.
//
// Output columns are built by the BatchBuilder. The leading output columns
// may be input columns passed through (LocalFunction::passed): the body
// only selects the input rows it keeps, and the builder shares or gathers
// those columns without touching their cells. The remaining output columns
// take typed appends.

#ifndef OPD_UDF_LOCAL_FUNCTION_H_
#define OPD_UDF_LOCAL_FUNCTION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/row_batch.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace opd::udf {

/// UDF invocation parameters (e.g. thresholds, tile sizes).
using Params = std::map<std::string, storage::Value>;

/// Looks up a numeric parameter with a default.
double ParamDouble(const Params& params, const std::string& key,
                   double default_value);

/// Whether a local function runs as a map task or a reduce task.
enum class LfKind { kMap, kReduce };

/// Bitmask of the three operation types a local function performs.
enum OpTypeBits : uint8_t {
  kOpAttrs = 1 << 0,   // type 1: discard or add attributes
  kOpFilter = 1 << 1,  // type 2: discard tuples by filters
  kOpGroup = 1 << 2,   // type 3: group tuples on a common key
};

/// Per-stage context handed to a local function, resolved once per stage.
struct LfContext {
  /// Input column index of each LocalFunction::reads name, in that order.
  std::vector<size_t> cols;
  /// Each LocalFunction::params entry: the invocation's value for its key,
  /// or its default when the invocation does not set it.
  std::vector<storage::Value> params;
};

/// \brief Builds the output batches of one local function.
///
/// Output columns [0, passed.size()) pass input columns through: Keep(r)
/// emits input row r's cells of those columns as the next output row. The
/// other columns take one typed append per output row. When the kept rows
/// are every input row in order, the passed columns are shared with the
/// input; otherwise they are gathered (strings keep the input's
/// dictionary). Appended strings intern into one dictionary per column that
/// every batch of this builder shares, so a builder must be used by one
/// thread at a time.
///
/// Finish() checks once per batch that every column holds the same number
/// of cells, and that each passed column has its output type (a passed
/// column of another declared type is copied cell by cell into one that
/// has, as appending its cells would).
class BatchBuilder {
 public:
  /// `schema` is the output schema; `passed` the input column of each
  /// leading output column.
  BatchBuilder(const storage::Schema& schema, std::vector<size_t> passed);

  /// Starts an output batch whose passed columns come from `in` (which
  /// must outlive Finish()).
  void Begin(const storage::RowBatch& in);

  /// Emits input row `row`'s passed cells as the next output row. Rows are
  /// kept in non-decreasing order; a row may be kept more than once.
  void Keep(uint32_t row) {
    identity_ = identity_ && row == sel_.size();
    sel_.push_back(row);
  }

  // Typed appends to output column `c` (one past the passed columns or
  // later), each equal to appending the cell as a Value.
  void AppendInt64(size_t c, int64_t v) { cols_[c]->AppendInt64(v); }
  void AppendDouble(size_t c, double v) { cols_[c]->AppendDouble(v); }
  void AppendString(size_t c, std::string_view v) {
    cols_[c]->AppendString(v);
  }
  void AppendNull(size_t c) { cols_[c]->AppendNull(); }
  /// Appends an exact copy of cell `row` of `src`.
  void AppendCell(size_t c, const storage::ColumnVector& src, size_t row) {
    cols_[c]->AppendFrom(src, row, &remaps_[c]);
  }

  /// Output rows so far in the open batch.
  size_t num_rows() const;

  /// Seals the open batch into `*out`. Fails, naming `lf_name`, when the
  /// columns hold different numbers of cells.
  Status Finish(const std::string& lf_name, storage::RowBatch* out);

 private:
  const storage::Schema* schema_;
  std::vector<size_t> passed_;
  const storage::RowBatch* in_ = nullptr;
  std::vector<uint32_t> sel_;
  bool identity_ = true;  // sel_ == 0, 1, ..., sel_.size() - 1
  std::vector<storage::ColumnVectorPtr> cols_;  // null for passed columns
  std::vector<storage::DictionaryPtr> dicts_;   // per appended string column
  std::vector<storage::DictRemap> remaps_;
};

/// Map body: reads one input batch and emits its output rows into `out`
/// (0..n rows per input row).
using MapFn = std::function<void(const storage::RowBatch& in,
                                 const LfContext& ctx, BatchBuilder* out)>;

/// Reduce body: reads the key group at rows `group` of `in` (in input
/// order) and emits its output rows into `out`.
using ReduceFn =
    std::function<void(const storage::RowBatch& in, storage::RowRange group,
                       const LfContext& ctx, BatchBuilder* out)>;

/// Computes the local function's output schema from its input schema.
using SchemaFn =
    std::function<Result<storage::Schema>(const storage::Schema&,
                                          const Params&)>;

/// \brief One map or reduce stage inside a UDF.
struct LocalFunction {
  std::string name;
  LfKind kind = LfKind::kMap;
  uint8_t op_types = 0;  // OpTypeBits mask; used by the cheapest-op bound
  /// Reduce only: the input columns forming the grouping key.
  std::vector<std::string> group_keys;
  /// Input columns the body reads (LfContext::cols).
  std::vector<std::string> reads;
  /// Input columns passed through as the leading output columns, in order;
  /// {"*"} passes every input column.
  std::vector<std::string> passed;
  /// Parameters the body reads, each with its default (LfContext::params).
  std::vector<std::pair<std::string, storage::Value>> params;
  SchemaFn out_schema;
  MapFn map_fn;        // set when kind == kMap
  ReduceFn reduce_fn;  // set when kind == kReduce
};

}  // namespace opd::udf

#endif  // OPD_UDF_LOCAL_FUNCTION_H_
