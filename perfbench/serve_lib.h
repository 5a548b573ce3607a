// Helpers of the end-to-end serving benchmark (e2e_serve.cc), kept apart
// so serve_lib_test.cc can check them on synthetic inputs.

#ifndef OPD_PERFBENCH_SERVE_LIB_H_
#define OPD_PERFBENCH_SERVE_LIB_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace opd::perfbench {

/// One span of a query's trace, reduced to what self-time needs.
struct SpanInterval {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  double start = 0;
  double end = 0;
};

/// Exclusive ("self") time of every span, in the units of start/end.
///
/// A span owns the instants at which it is open and none of its own
/// children is. So a parent's self time is its duration minus the *union*
/// of its children's intervals, never negative even when the children
/// overlap each other. An instant owned by several spans at once (siblings
/// running concurrently) is split equally between them, so the self times
/// sum to the length of the union of all intervals: the parts add up to
/// the whole.
std::vector<double> ExclusiveTimes(const std::vector<SpanInterval>& spans);

/// A nearest-rank percentile of a sample set, with the samples behind it.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  /// Samples strictly above the percentile's rank.
  size_t beyond = 0;
};

/// Nearest-rank percentile `q` in (0, 1] of `values` (need not be sorted).
/// Returns value 0 and no samples for an empty set.
Percentile NearestRank(std::vector<double> values, double q);

/// Order-insensitive fingerprint of a table's schema and row multiset:
/// permuting rows keeps it, changing, adding or dropping a row (duplicates
/// included) changes it. The table name is excluded: it embeds the engine's
/// run counter.
uint64_t OrderInsensitiveFingerprint(const storage::Table& table);

/// One tenant's query stream for one round, as (analyst, version) pairs.
/// Tenant t (0-based) owns analysts t+1 and t+5 and runs each one's
/// versions 1..4 in order; the seed picks how the two analysts' sequences
/// interleave, so (seed, tenant, round) fully determines the stream.
std::vector<std::pair<int, int>> TenantStream(uint64_t seed, int tenant,
                                              uint64_t round);

}  // namespace opd::perfbench

#endif  // OPD_PERFBENCH_SERVE_LIB_H_
