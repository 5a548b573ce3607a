#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "exec/hash/flat_table.h"
#include "exec/ops.h"

namespace opd::exec {

using storage::Row;
using storage::RowBatch;
using storage::Value;

namespace {

// Aggregation state for one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool has = false;
  Value min, max;

  void Update(const Value& v) {
    ++count;
    sum += v.ToDouble();
    if (!has || v < min) min = v;
    if (!has || max < v) max = v;
    has = true;
  }
};

Value FinishAgg(const plan::AggSpec& spec, const AggState& s,
                storage::DataType out_type) {
  switch (spec.fn) {
    case plan::AggFn::kCount:
      return Value(s.count);
    case plan::AggFn::kSum:
      return out_type == storage::DataType::kInt64
                 ? Value(static_cast<int64_t>(s.sum))
                 : Value(s.sum);
    case plan::AggFn::kAvg:
      return s.count == 0 ? Value::Null()
                          : Value(s.sum / static_cast<double>(s.count));
    case plan::AggFn::kMin:
      return s.has ? s.min : Value::Null();
    case plan::AggFn::kMax:
      return s.has ? s.max : Value::Null();
  }
  return Value::Null();
}

using GroupEntry = std::pair<Row, std::vector<AggState>>;

}  // namespace

Status RunGroupBy(const OpInput& in, const TaskCtx& ctx, OpResult* out) {
  const plan::OpNode& node = *in.node;
  const storage::Table& input = *in.tables[0];
  out->has_shuffle = true;
  out->shuffle_bytes = input.ByteSize();
  std::vector<size_t> key_idx;
  for (const std::string& key : node.group.keys) {
    OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(input.schema(), key));
    key_idx.push_back(i);
  }
  std::vector<std::optional<size_t>> agg_idx;
  for (const auto& spec : node.group.aggs) {
    if (spec.input.empty()) {
      agg_idx.push_back(std::nullopt);
    } else {
      OPD_ASSIGN_OR_RETURN(size_t i, ColIndex(input.schema(), spec.input));
      agg_idx.push_back(i);
    }
  }
  const size_t num_buckets = DeriveReduceTasks(ctx, out->shuffle_bytes);
  out->reduce_tasks = num_buckets;
  const size_t num_aggs = node.group.aggs.size();
  std::vector<std::vector<GroupEntry>> bucket_groups(num_buckets);
  // Optimizer cardinality estimate (product of key distincts from the
  // sampled stats, capped by input rows): pre-sizes each bucket's flat group
  // index when it is available — the bucket's group count is roughly
  // est_groups/num_buckets, far below its row count for duplicate-heavy
  // keys. Growth past the estimate is what engine.shuffle.ht_resizes
  // measures.
  const size_t est_groups =
      node.est_rows > 0 ? static_cast<size_t>(node.est_rows) : 0;

  const BatchList in_list(input);
  const std::vector<hash::KeyCodec> codecs =
      hash::PlanKeyCodecs({{in_list.batches.get(), &key_idx}});
  // Folds input row `ref` into one group's aggregates. Rows of a key fold in
  // original row order, so floating point accumulation matches a serial
  // pass.
  auto fold = [&](std::vector<AggState>* aggs, RowRef ref) {
    const RowBatch& batch = in_list.batch(ref.batch);
    for (size_t a = 0; a < aggs->size(); ++a) {
      (*aggs)[a].Update(agg_idx[a]
                            ? batch.column(*agg_idx[a]).GetValue(ref.idx)
                            : Value(int64_t{1}));
    }
  };

  // Hash recycling for group-by: the aggregates are query-specific, so the
  // recycler caches the *grouping routes* — per bucket, each input row (in
  // reduce order) with the dense group id it folded into, plus a copy of
  // each group's key. A hit skips partitioning and group discovery entirely
  // and replays the routes with a hash-free linear pass, folding this
  // query's aggregates from the live input.
  RecycleSlot slot(in, 0, hash::RecycleKind::kGroupByBatch, key_idx,
                   codecs[0], num_buckets, in_list, out);
  const hash::CachedBuild* cached = slot.cached();
  hash::CachedBuild* pending = slot.pending();
  double part_s = 0, reduce_max_s = 0;
  if (cached != nullptr) {
    // Route order == the original reduce order == global row order per
    // bucket, so float accumulation and first-seen group order are
    // byte-identical to a rebuild.
    OPD_RETURN_NOT_OK(RunPhase(
        ctx, "reduce", num_buckets,
        [&](size_t b) -> Status {
          const auto& rrows = cached->group_rows_batch[b];
          const auto& rgof = cached->group_of[b];
          const auto& rkeys = cached->group_keys[b];
          std::vector<GroupEntry>& groups = bucket_groups[b];
          groups.reserve(rkeys.size());
          for (size_t i = 0; i < rrows.size(); ++i) {
            const uint32_t id = rgof[i];
            if (id == groups.size()) {
              groups.emplace_back(rkeys[id], std::vector<AggState>(num_aggs));
            }
            fold(&groups[id].second, rrows[i]);
          }
          return Status::OK();
        },
        &reduce_max_s));
  } else {
    // Fused map+partition, then each bucket hash-aggregates its rows keyed
    // by the normalized key bytes; the key Row is materialized once per
    // group.
    RowPartition buf(in_list.size(), num_buckets);
    std::vector<uint64_t> hash_of(in_list.num_rows);
    OPD_RETURN_NOT_OK(RunPipelinedShuffle(
        ctx, in_list.size(),
        [&](size_t t) -> Status {
          PartitionBatch(in_list, t, key_idx, &buf, hash_of.data());
          return Status::OK();
        },
        num_buckets,
        [&](size_t b) -> Status {
          std::vector<GroupEntry>& groups = bucket_groups[b];
          const size_t bucket_n = buf.BucketSize(b);
          hash::FlatGroupIndex index;
          index.Reserve(est_groups > 0
                            ? std::min(bucket_n, est_groups / num_buckets + 1)
                            : bucket_n,
                        codecs[0].bounded ? codecs[0].width_bound : 0);
          hash::KeyScratch key;
          buf.ForEachInBucket(b, [&](RowRef ref) {
            const RowBatch& batch = in_list.batch(ref.batch);
            hash::NormalizeKey(batch, ref.idx, codecs[0], &key);
            const size_t g = in_list.offsets[ref.batch] + ref.idx;
            auto [id, inserted] =
                index.InsertOrGet(hash_of[g], key.data(), key.size());
            if (inserted) {
              Row krow;
              krow.reserve(key_idx.size());
              for (size_t c : key_idx) {
                krow.push_back(batch.column(c).GetValue(ref.idx));
              }
              // Copy the key into the recycler record *before* the move
              // below (the merge later moves keys out of groups).
              if (pending != nullptr) pending->group_keys[b].push_back(krow);
              groups.emplace_back(std::move(krow),
                                  std::vector<AggState>(num_aggs));
            }
            if (pending != nullptr) {
              pending->group_rows_batch[b].push_back(ref);
              pending->group_of[b].push_back(id);
            }
            fold(&groups[id].second, ref);
          });
          in.counters->ObserveTable(index.size(), index.load_factor(),
                                    index.stats(), index.arena_bytes());
          return Status::OK();
        },
        &part_s, &reduce_max_s));
    out->skew = BucketSkew(buf);
  }
  out->max_task_s = part_s + reduce_max_s;
  // Benefit = the partition + reduce wall a future hit skips (the replay
  // pass it pays instead is a fraction of it).
  slot.Commit(part_s + reduce_max_s);

  // Deterministic merge: groups sorted by key, for any thread/bucket count.
  std::vector<GroupEntry*> ordered;
  size_t num_groups = 0;
  for (auto& g : bucket_groups) num_groups += g.size();
  ordered.reserve(num_groups);
  for (auto& groups : bucket_groups) {
    for (GroupEntry& g : groups) ordered.push_back(&g);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const GroupEntry* a, const GroupEntry* b) {
              return RowLess()(a->first, b->first);
            });
  const auto& out_cols = node.out_schema.columns();
  out->table = storage::Table("", node.out_schema);
  for (GroupEntry* g : ordered) {
    Row r = std::move(g->first);
    const size_t key_size = r.size();
    r.reserve(key_size + g->second.size());
    for (size_t a = 0; a < g->second.size(); ++a) {
      r.push_back(FinishAgg(node.group.aggs[a], g->second[a],
                            out_cols[key_size + a].type));
    }
    OPD_RETURN_NOT_OK(out->table.AppendRow(std::move(r)));
  }
  return Status::OK();
}

}  // namespace opd::exec
