#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>
#include <vector>

#include "exec/hash/flat_table.h"
#include "exec/ops.h"

namespace opd::exec {

using storage::ColumnVector;
using storage::DataType;
using storage::RowBatch;

namespace {

// Optimizer distinct-key estimate for the build side (product of the build
// child's per-key-column distincts, capped by its row estimate), or 0 when
// a column has none. It pre-sizes each bucket table's per-key arrays (index
// slots, key refs, duplicate-chain heads/tails) well below the all-distinct
// worst case on duplicate-heavy keys. Growth past the estimate shows up in
// engine.shuffle.ht_resizes.
size_t EstimateBuildKeys(const plan::OpNode& node, bool build_right) {
  const plan::OpNode* build_child = node.children[build_right ? 1 : 0].get();
  if (node.join.pairs.empty()) return 0;
  double est = 1.0;
  for (const auto& [lname, rname] : node.join.pairs) {
    auto it = build_child->est_distinct.find(build_right ? rname : lname);
    if (it == build_child->est_distinct.end() || it->second <= 0) return 0;
    est *= std::max(1.0, it->second);
  }
  if (build_child->est_rows > 0) est = std::min(est, build_child->est_rows);
  return static_cast<size_t>(est);
}

// One reduce bucket's matches, in probe-row order.
struct Match {
  size_t probe_global;
  RowRef probe, build;
};

}  // namespace

Status RunJoin(const OpInput& in, const TaskCtx& ctx, OpResult* out) {
  const plan::OpNode& node = *in.node;
  const storage::Table& left = *in.tables[0];
  const storage::Table& right = *in.tables[1];
  out->has_shuffle = true;
  // Both sides are re-partitioned by key.
  out->shuffle_bytes = left.ByteSize() + right.ByteSize();
  std::vector<size_t> lkeys, rkeys;
  for (const auto& [lname, rname] : node.join.pairs) {
    OPD_ASSIGN_OR_RETURN(size_t li, ColIndex(left.schema(), lname));
    OPD_ASSIGN_OR_RETURN(size_t ri, ColIndex(right.schema(), rname));
    lkeys.push_back(li);
    rkeys.push_back(ri);
  }
  // Output column mapping: (from_left, index).
  std::vector<std::pair<bool, size_t>> out_map;
  for (const auto& col : node.out_schema.columns()) {
    if (auto li = left.schema().IndexOf(col.name)) {
      out_map.emplace_back(true, *li);
    } else {
      OPD_ASSIGN_OR_RETURN(size_t ri, ColIndex(right.schema(), col.name));
      out_map.emplace_back(false, ri);
    }
  }
  // Build the hash table on the smaller side (ties keep the historical
  // build-on-right choice); probe with the larger side. The output column
  // order follows out_map and is side-invariant.
  const bool build_right = right.num_rows() <= left.num_rows();
  const std::vector<size_t>& build_keys = build_right ? rkeys : lkeys;
  const std::vector<size_t>& probe_keys = build_right ? lkeys : rkeys;
  const BatchList build_list(build_right ? right : left);
  const BatchList probe_list(build_right ? left : right);

  const size_t num_buckets = DeriveReduceTasks(ctx, out->shuffle_bytes);
  out->reduce_tasks = num_buckets;
  const size_t est_build_keys = EstimateBuildKeys(node, build_right);
  // Key codecs planned once per join from both sides' lanes.
  const std::vector<hash::KeyCodec> codecs = hash::PlanKeyCodecs(
      {{build_list.batches.get(), &build_keys},
       {probe_list.batches.get(), &probe_keys}});

  // Hash recycling: when the build side is a direct scan of an unchanged
  // table/view, the recycler may hold its fully built per-bucket tables
  // from an earlier query (possibly another tenant's). A cached build makes
  // this a probe-only job; a pending one is built into the recycler's
  // entry-to-be.
  RecycleSlot slot(in, build_right ? 1 : 0,
                   hash::RecycleKind::kJoinBuildBatch, build_keys, codecs[0],
                   num_buckets, build_list, out);
  const hash::CachedBuild* cached = slot.cached();
  hash::CachedBuild* pending = slot.pending();
  std::atomic<double> build_s{0};

  // Fused map+partition: one producer per batch (build batches first, then
  // probe batches) hashes straight into its own per-bucket buffer slots.
  // On a recycle hit the build side needs no producers at all: the cached
  // tables already hold every build row. Per-row key hashes are kept so the
  // reduce tables never re-hash.
  RowPartition bbuf(build_list.size(), num_buckets);
  RowPartition pbuf(probe_list.size(), num_buckets);
  std::vector<uint32_t> probe_bucket(probe_list.num_rows, 0);
  std::vector<uint64_t> build_hash(cached == nullptr ? build_list.num_rows
                                                     : 0);
  std::vector<uint64_t> probe_hash(probe_list.num_rows);
  const size_t nb = cached != nullptr ? 0 : build_list.size();
  auto produce = [&](size_t t) -> Status {
    if (t < nb) {
      PartitionBatch(build_list, t, build_keys, &bbuf, build_hash.data());
    } else {
      PartitionBatch(probe_list, t - nb, probe_keys, &pbuf, probe_hash.data(),
                     probe_bucket.data());
    }
    return Status::OK();
  };

  // Reduce: each bucket keys its build rows by their normalized key bytes
  // (equal exactly when the key Values are equal) and probes in row order,
  // emitting (probe ref, build ref) matches.
  std::vector<std::vector<Match>> bucket_out(num_buckets);
  auto reduce_bucket = [&](size_t b) -> Status {
    auto& local = bucket_out[b];
    local.reserve(pbuf.BucketSize(b));
    hash::KeyScratch key;
    // Probes every probe row of the bucket through `for_each_match`.
    auto probe = [&](const auto& for_each_match) {
      pbuf.ForEachInBucket(b, [&](RowRef pref) {
        hash::NormalizeKey(probe_list.batch(pref.batch), pref.idx, codecs[1],
                           &key);
        const size_t pg = probe_list.offsets[pref.batch] + pref.idx;
        for_each_match(probe_hash[pg], key, [&](RowRef bref) {
          local.push_back(Match{pg, pref, bref});
        });
      });
    };
    if (cached != nullptr) {
      // Recycled build: probe the shared cached table through the
      // stats-free accessors (other queries may probe it concurrently).
      // Matches come out in the cached table's insertion order == global
      // build-row order, exactly what a fresh build would emit.
      const hash::FlatMultiMap<RowRef>& ht = cached->join_batch[b];
      probe([&](uint64_t h, const hash::KeyScratch& k, const auto& emit) {
        ht.ForEachMatchShared(h, k.data(), k.size(), emit);
      });
      return Status::OK();
    }
    hash::FlatMultiMap<RowRef> fresh;
    hash::FlatMultiMap<RowRef>& ht =
        pending != nullptr ? pending->join_batch[b] : fresh;
    const size_t build_n = bbuf.BucketSize(b);
    ht.Reserve(build_n, codecs[0].bounded ? codecs[0].width_bound : 0,
               est_build_keys > 0
                   ? std::min(build_n, est_build_keys / num_buckets + 1)
                   : 0);
    const auto build_start = std::chrono::steady_clock::now();
    bbuf.ForEachInBucket(b, [&](RowRef ref) {
      hash::NormalizeKey(build_list.batch(ref.batch), ref.idx, codecs[0],
                         &key);
      const size_t bg = build_list.offsets[ref.batch] + ref.idx;
      ht.Insert(build_hash[bg], key.data(), key.size(), ref);
    });
    if (pending != nullptr) {
      build_s.fetch_add(SecondsSince(build_start), std::memory_order_relaxed);
    }
    probe([&](uint64_t h, const hash::KeyScratch& k, const auto& emit) {
      ht.ForEachMatch(h, k.data(), k.size(), emit);
    });
    in.counters->ObserveTable(ht.size(), ht.load_factor(), ht.stats(),
                              ht.arena_bytes());
    return Status::OK();
  };

  double part_s = 0, reduce_max_s = 0;
  OPD_RETURN_NOT_OK(RunPipelinedShuffle(ctx, nb + probe_list.size(), produce,
                                        num_buckets, reduce_bucket, &part_s,
                                        &reduce_max_s));
  out->skew = BucketSkew(pbuf);
  out->max_task_s = part_s + reduce_max_s;
  slot.Commit(build_s.load(std::memory_order_relaxed));

  // Deterministic merge: matches in probe-row order (each bucket's output is
  // already ordered by probe index, so a cursor per bucket suffices).
  // Identical for every thread/bucket count.
  size_t total = 0;
  for (const auto& b : bucket_out) total += b.size();
  std::vector<std::pair<RowRef, RowRef>> merged;  // (probe, build)
  merged.reserve(total);
  std::vector<size_t> cursor(num_buckets, 0);
  for (size_t p = 0; p < probe_list.num_rows; ++p) {
    auto& local = bucket_out[probe_bucket[p]];
    size_t& c = cursor[probe_bucket[p]];
    while (c < local.size() && local[c].probe_global == p) {
      merged.emplace_back(local[c].probe, local[c].build);
      ++c;
    }
  }

  // Assemble the output column-wise: one gather per output column from
  // whichever side it came from, memoizing dictionary remaps per source
  // batch.
  std::vector<storage::ColumnVectorPtr> out_cols;
  out_cols.reserve(out_map.size());
  for (size_t c = 0; c < out_map.size(); ++c) {
    const auto& [from_left, src_col] = out_map[c];
    const bool from_probe = from_left == build_right;
    const BatchList& side = from_probe ? probe_list : build_list;
    auto col =
        std::make_shared<ColumnVector>(node.out_schema.columns()[c].type);
    col->Reserve(merged.size());
    std::vector<storage::DictRemap> remaps(side.size());
    for (const auto& [pref, bref] : merged) {
      const RowRef ref = from_probe ? pref : bref;
      col->AppendFrom(side.batch(ref.batch).column(src_col), ref.idx,
                      &remaps[ref.batch]);
    }
    // Dictionary compression of the gathered string columns: hit rate is
    // 1 - entries/values across the run.
    if (in.counters->dict_values != nullptr &&
        col->declared_type() == DataType::kString && col->is_native() &&
        col->size() > 0) {
      in.counters->dict_values->Inc(col->size());
      in.counters->dict_entries->Inc(col->dict_size());
    }
    out_cols.push_back(std::move(col));
  }
  std::vector<RowBatch> out_batches;
  out_batches.push_back(RowBatch(std::move(out_cols), merged.size()));
  out->table = storage::Table::FromBatches("", node.out_schema,
                                           std::move(out_batches));
  return Status::OK();
}

}  // namespace opd::exec
