#include "serve_lib.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/hash.h"
#include "storage/value.h"

namespace opd::perfbench {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<double> ExclusiveTimes(const std::vector<SpanInterval>& spans) {
  const size_t n = spans.size();
  std::vector<double> self(n, 0.0);
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(n);
  for (size_t i = 0; i < n; ++i) index.emplace(spans[i].id, i);
  // parent_of[i] = index of span i's parent, or n when it is not traced.
  std::vector<size_t> parent_of(n, n);
  for (size_t i = 0; i < n; ++i) {
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) parent_of[i] = it->second;
  }

  std::vector<double> bounds;
  bounds.reserve(2 * n);
  for (const SpanInterval& s : spans) {
    if (s.end > s.start) {
      bounds.push_back(s.start);
      bounds.push_back(s.end);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Sweep the elementary segments between consecutive boundaries: within
  // one segment every span is either open throughout or closed throughout.
  std::vector<char> active(n);
  std::vector<char> has_active_child(n);
  for (size_t b = 0; b + 1 < bounds.size(); ++b) {
    const double lo = bounds[b];
    const double hi = bounds[b + 1];
    std::fill(has_active_child.begin(), has_active_child.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      active[i] = spans[i].start <= lo && spans[i].end >= hi;
      if (active[i] && parent_of[i] < n) has_active_child[parent_of[i]] = 1;
    }
    size_t owners = 0;
    for (size_t i = 0; i < n; ++i) owners += active[i] && !has_active_child[i];
    if (owners == 0) continue;
    const double share = (hi - lo) / static_cast<double>(owners);
    for (size_t i = 0; i < n; ++i) {
      if (active[i] && !has_active_child[i]) self[i] += share;
    }
  }
  return self;
}

Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double exact = q * static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

uint64_t OrderInsensitiveFingerprint(const storage::Table& table) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const storage::Column& col : table.schema().columns()) {
    HashCombine(&h, HashString(col.name));
    HashCombine(&h, static_cast<uint64_t>(col.type));
  }
  HashCombine(&h, table.num_rows());
  // A wrapping sum of mixed row hashes is a multiset hash: independent of
  // row order, sensitive to every row and to its multiplicity.
  const storage::RowHash row_hash;
  uint64_t rows = 0;
  for (const storage::Row& row : table.rows()) {
    rows += SplitMix64(row_hash(row));
  }
  HashCombine(&h, rows);
  return h;
}

std::vector<std::pair<int, int>> TenantStream(uint64_t seed, int tenant,
                                              uint64_t round) {
  uint64_t state = SplitMix64(seed);
  state = SplitMix64(state ^ static_cast<uint64_t>(tenant));
  state = SplitMix64(state ^ round);
  const int analysts[2] = {tenant + 1, tenant + 5};
  int next_version[2] = {1, 1};
  constexpr int kVersions = 4;
  std::vector<std::pair<int, int>> stream;
  stream.reserve(2 * kVersions);
  while (stream.size() < 2 * kVersions) {
    // Uniform over interleavings: pick a side in proportion to what it has
    // left.
    const uint64_t left0 = kVersions + 1 - next_version[0];
    const uint64_t left1 = kVersions + 1 - next_version[1];
    state = SplitMix64(state);
    const int side = state % (left0 + left1) < left0 ? 0 : 1;
    stream.emplace_back(analysts[side], next_version[side]++);
  }
  return stream;
}

}  // namespace opd::perfbench
