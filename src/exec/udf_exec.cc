#include "exec/udf_exec.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <utility>

#include "exec/hash/flat_table.h"

namespace opd::exec {

using storage::ColumnVector;
using storage::DictionaryPtr;
using storage::Row;
using storage::RowBatch;
using storage::RowRange;
using storage::Schema;
using storage::Table;

namespace {

// Gathers rows `refs[0..n)` of `batches` into one batch of `schema`. A
// string column whose source batches share one dictionary keeps it; the
// others intern into (*dicts)[c], one dictionary per column shared by every
// batch gathered with the same `dicts`.
RowBatch GatherRefs(const std::vector<RowBatch>& batches, const RowRef* refs,
                    size_t n, const Schema& schema,
                    std::vector<DictionaryPtr>* dicts) {
  std::vector<storage::ColumnVectorPtr> columns;
  columns.reserve(schema.num_columns());
  std::vector<storage::DictRemap> remaps(batches.size());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const storage::DataType type = schema.column(c).type;
    bool one_dict = true;
    const storage::Dictionary* seen = nullptr;
    for (const RowBatch& b : batches) {
      const storage::Dictionary* d = b.column(c).dict().get();
      if (d == nullptr) continue;
      one_dict = one_dict && (seen == nullptr || seen == d);
      seen = d;
    }
    storage::ColumnVectorPtr col;
    if (type == storage::DataType::kString && !one_dict) {
      if ((*dicts)[c] == nullptr) {
        (*dicts)[c] = std::make_shared<storage::Dictionary>();
      }
      col = std::make_shared<ColumnVector>(
          ColumnVector::StringWithSharedDict((*dicts)[c]));
    } else {
      col = std::make_shared<ColumnVector>(type);  // adopts a shared dict
    }
    col->Reserve(n);
    for (auto& remap : remaps) remap = storage::DictRemap{};
    for (size_t i = 0; i < n; ++i) {
      col->AppendFrom(batches[refs[i].batch].column(c), refs[i].idx,
                      &remaps[refs[i].batch]);
    }
    columns.push_back(std::move(col));
  }
  return RowBatch(std::move(columns), n);
}

// Rows [begin, end) of `batch` as a batch of their own (zero-copy when
// that is all of it).
RowBatch Slice(const RowBatch& batch, size_t begin, size_t end) {
  std::vector<uint32_t> sel(end - begin);
  std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(begin));
  return batch.Gather(sel);
}

// One stage, resolved against its input schema: output schema, body
// context and passed columns.
struct Stage {
  Schema out_schema;
  udf::LfContext ctx;
  std::vector<size_t> passed;
};

// Resolves `lf` against its input schema once per stage: the output
// schema, the columns it reads, its parameters (the invocation's value or
// the default) and the input column of each passed output column.
Status PrepareStage(const udf::LocalFunction& lf, const Schema& in,
                    const udf::Params& params, Stage* stage) {
  OPD_ASSIGN_OR_RETURN(stage->out_schema, lf.out_schema(in, params));
  for (const std::string& name : lf.reads) {
    auto idx = in.IndexOf(name);
    if (!idx) {
      return Status::InvalidArgument("local function " + lf.name +
                                     " reads missing column " + name);
    }
    stage->ctx.cols.push_back(*idx);
  }
  for (const auto& [key, default_value] : lf.params) {
    auto it = params.find(key);
    stage->ctx.params.push_back(it == params.end() ? default_value
                                                   : it->second);
  }
  if (lf.passed.size() == 1 && lf.passed[0] == "*") {
    for (size_t c = 0; c < in.num_columns(); ++c) stage->passed.push_back(c);
  } else {
    for (const std::string& name : lf.passed) {
      auto idx = in.IndexOf(name);
      if (!idx) {
        return Status::InvalidArgument("local function " + lf.name +
                                       " passes missing column " + name);
      }
      stage->passed.push_back(*idx);
    }
  }
  if (stage->passed.size() > stage->out_schema.num_columns()) {
    return Status::Internal("local function " + lf.name + " passes " +
                            std::to_string(stage->passed.size()) +
                            " columns into a schema of " +
                            std::to_string(stage->out_schema.num_columns()));
  }
  return Status::OK();
}

// One key group of a reduce bucket: its key (for the global merge order)
// and the rows its reduce call emitted into the bucket's output batch.
struct ReduceGroup {
  Row key;
  uint32_t bucket = 0;
  uint32_t out_begin = 0;
  uint32_t out_end = 0;
};

// Runs one reduce local function over `input`: hash-partition its batches
// by key into reduce buckets (PartitionBatch, as RunGroupBy does); each
// bucket gathers its rows group by group into one batch (rows of a group in
// input order) and calls the reduce body once per group's row range. The
// groups' outputs then merge in global key order, regardless of bucket or
// thread counts.
Status RunReduceStage(const udf::LocalFunction& lf, const Table& input,
                      const udf::Params& params, const TaskCtx& ctx,
                      Table* out, LfStageRun* run) {
  if (!lf.reduce_fn) {
    return Status::Internal("reduce local function missing body: " + lf.name);
  }
  const Schema& in_schema = input.schema();
  Stage stage;
  OPD_RETURN_NOT_OK(PrepareStage(lf, in_schema, params, &stage));
  std::vector<size_t> key_idx;
  for (const std::string& key : lf.group_keys) {
    auto idx = in_schema.IndexOf(key);
    if (!idx) {
      return Status::InvalidArgument("reduce key not in schema: " + key);
    }
    key_idx.push_back(*idx);
  }

  const BatchList list(input);
  const size_t num_buckets = DeriveReduceTasks(ctx, run->in_bytes);
  run->reduce_tasks = num_buckets;
  const std::vector<hash::KeyCodec> codecs =
      hash::PlanKeyCodecs({{list.batches.get(), &key_idx}});
  RowPartition buf(list.size(), num_buckets);
  std::vector<uint64_t> hash_of(list.num_rows);
  std::vector<std::vector<ReduceGroup>> bucket_groups(num_buckets);
  std::vector<RowBatch> bucket_out(num_buckets);
  double partition_max_s = 0, reduce_max_s = 0;
  OPD_RETURN_NOT_OK(RunPipelinedShuffle(
      ctx, list.size(),
      [&](size_t t) -> Status {
        PartitionBatch(list, t, key_idx, &buf, hash_of.data());
        return Status::OK();
      },
      num_buckets,
      [&](size_t b) -> Status {
        // The bucket yields its rows in input order, so each group's rows,
        // and so the reduce body's view of them, are independent of the
        // schedule.
        std::vector<ReduceGroup>& groups = bucket_groups[b];
        hash::FlatGroupIndex group_index;
        group_index.Reserve(buf.BucketSize(b), 0);
        hash::KeyScratch key;
        std::vector<RowRef> refs;
        std::vector<uint32_t> group_of;
        refs.reserve(buf.BucketSize(b));
        group_of.reserve(buf.BucketSize(b));
        buf.ForEachInBucket(b, [&](RowRef ref) {
          const RowBatch& batch = list.batch(ref.batch);
          hash::NormalizeKey(batch, ref.idx, codecs[0], &key);
          auto [id, inserted] = group_index.InsertOrGet(
              hash_of[list.offsets[ref.batch] + ref.idx], key.data(),
              key.size());
          if (inserted) {
            ReduceGroup g;
            g.bucket = static_cast<uint32_t>(b);
            g.key.reserve(key_idx.size());
            for (size_t c : key_idx) {
              g.key.push_back(batch.column(c).GetValue(ref.idx));
            }
            groups.push_back(std::move(g));
          }
          refs.push_back(ref);
          group_of.push_back(id);
        });
        // Stable counting sort of the rows by group: group g's rows are
        // [start[g], start[g + 1]) of the gathered batch.
        std::vector<size_t> start(groups.size() + 1, 0);
        for (uint32_t id : group_of) ++start[id + 1];
        for (size_t g = 0; g < groups.size(); ++g) start[g + 1] += start[g];
        std::vector<RowRef> by_group(refs.size());
        {
          std::vector<size_t> next(start.begin(), start.end() - 1);
          for (size_t i = 0; i < refs.size(); ++i) {
            by_group[next[group_of[i]]++] = refs[i];
          }
        }
        std::vector<DictionaryPtr> dicts(in_schema.num_columns());
        const RowBatch grouped = GatherRefs(
            *list.batches, by_group.data(), by_group.size(), in_schema, &dicts);
        udf::BatchBuilder builder(stage.out_schema, stage.passed);
        builder.Begin(grouped);
        for (size_t g = 0; g < groups.size(); ++g) {
          groups[g].out_begin = static_cast<uint32_t>(builder.num_rows());
          lf.reduce_fn(grouped, RowRange{start[g], start[g + 1]}, stage.ctx,
                       &builder);
          groups[g].out_end = static_cast<uint32_t>(builder.num_rows());
        }
        return builder.Finish(lf.name, &bucket_out[b]);
      },
      &partition_max_s, &reduce_max_s));
  run->max_task_seconds = partition_max_s + reduce_max_s;

  // Deterministic merge: every group's output in global key order.
  std::vector<const ReduceGroup*> ordered;
  for (const auto& groups : bucket_groups) {
    for (const ReduceGroup& g : groups) ordered.push_back(&g);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ReduceGroup* a, const ReduceGroup* b) {
              return RowLess()(a->key, b->key);
            });
  std::vector<RowRef> refs;
  for (const ReduceGroup* g : ordered) {
    for (uint32_t r = g->out_begin; r < g->out_end; ++r) {
      refs.push_back(RowRef{g->bucket, r});
    }
  }
  std::vector<RowBatch> out_batches;
  std::vector<DictionaryPtr> dicts(stage.out_schema.num_columns());
  for (size_t i = 0; i < refs.size(); i += RowBatch::kDefaultRows) {
    const size_t n = std::min(RowBatch::kDefaultRows, refs.size() - i);
    out_batches.push_back(
        GatherRefs(bucket_out, refs.data() + i, n, stage.out_schema, &dicts));
  }
  *out = out_batches.empty()
             ? Table("", stage.out_schema)
             : Table::FromBatches("", stage.out_schema, std::move(out_batches));
  run->out_rows = out->num_rows();
  run->out_bytes = out->ByteSize();
  return Status::OK();
}

// Runs the consecutive map stages [s, e) of `udf` (one or more) as ONE
// fused wave over `input`, split into block-sized tasks. A task walks the
// input batches its split covers (a split may start or end inside a batch,
// whose rows are then sliced off) and streams each through every stage's
// map body in turn, batch to batch, so intermediate stage outputs never
// materialize globally. Each task has one BatchBuilder per stage, so the
// strings a task appends share one dictionary per column. Task-order
// concatenation of the output batches equals a serial pass, because map
// bodies treat each input row on its own, in order.
//
// Accounting stays per stage: boundary row/byte counts are summed across
// tasks, and the group's wall/straggler time is attributed to the first
// stage of the group (so per-kind wall sums, which calibration consumes,
// are preserved). Appends one LfStageRun per fused stage.
Status RunFusedMapStages(const udf::UdfDefinition& udf, size_t s, size_t e,
                         const Table& input, const udf::Params& params,
                         const TaskCtx& ctx, Table* out,
                         std::vector<LfStageRun>* stages) {
  const auto& lfs = udf.local_functions;
  const size_t k = e - s;

  // Resolve the schema chain and per-stage contexts up front.
  std::vector<Stage> chain(k);
  std::string fused_name;
  for (size_t i = 0; i < k; ++i) {
    const udf::LocalFunction& lf = lfs[s + i];
    if (!lf.map_fn) {
      return Status::Internal("map local function missing body: " + lf.name);
    }
    const Schema& in = i == 0 ? input.schema() : chain[i - 1].out_schema;
    OPD_RETURN_NOT_OK(PrepareStage(lf, in, params, &chain[i]));
    if (!fused_name.empty()) fused_name += "+";
    fused_name += lf.name;
  }

  const BatchList list(input);
  const size_t n = list.num_rows;
  const uint64_t in_bytes = input.ByteSize();
  const double avg_row_bytes =
      n == 0 ? 0.0 : static_cast<double>(in_bytes) / static_cast<double>(n);
  const std::vector<RowRange> splits = storage::SplitRowsByBlockSize(
      n, avg_row_bytes, ctx.block_size_bytes);

  obs::TraceSpan stage_span(ctx.trace, ctx.parent_span, "stage:" + fused_name,
                            "stage");
  const auto start = std::chrono::steady_clock::now();

  // Per-task output batches plus per-task counts at each stage boundary
  // (boundary j = output of stage s+j, 0 <= j < k).
  std::vector<std::vector<RowBatch>> parts(splits.size());
  std::vector<std::vector<uint64_t>> out_rows(splits.size());
  std::vector<std::vector<uint64_t>> out_bytes(splits.size());
  double wave_max_s = 0;
  OPD_RETURN_NOT_OK(RunPhase(
      ctx.Under(stage_span.id()), "pipeline", splits.size(),
      [&](size_t t) -> Status {
        const RowRange& split = splits[t];
        out_rows[t].assign(k, 0);
        out_bytes[t].assign(k, 0);
        if (split.size() == 0) return Status::OK();
        std::vector<udf::BatchBuilder> builders;
        builders.reserve(k);
        for (const Stage& stage : chain) {
          builders.emplace_back(stage.out_schema, stage.passed);
        }
        const std::vector<size_t>& offsets = list.offsets;
        size_t b = static_cast<size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), split.begin) -
            offsets.begin() - 1);
        for (size_t r = split.begin; r < split.end;) {
          while (r - offsets[b] >= list.batch(b).num_rows()) ++b;
          const RowBatch& batch = list.batch(b);
          const size_t lo = r - offsets[b];
          const size_t hi = std::min(batch.num_rows(), split.end - offsets[b]);
          r = offsets[b] + hi;
          RowBatch cur = Slice(batch, lo, hi);
          for (size_t i = 0; i < k && cur.num_rows() > 0; ++i) {
            builders[i].Begin(cur);
            lfs[s + i].map_fn(cur, chain[i].ctx, &builders[i]);
            RowBatch next;
            OPD_RETURN_NOT_OK(builders[i].Finish(lfs[s + i].name, &next));
            out_rows[t][i] += next.num_rows();
            out_bytes[t][i] += next.ByteSize();
            cur = std::move(next);
          }
          if (cur.num_rows() > 0) parts[t].push_back(std::move(cur));
        }
        return Status::OK();
      },
      &wave_max_s));
  const double wall_s = SecondsSince(start);

  std::vector<RowBatch> out_batches;
  for (auto& part : parts) {
    for (RowBatch& batch : part) out_batches.push_back(std::move(batch));
  }
  const Schema& out_schema = chain.back().out_schema;
  *out = out_batches.empty()
             ? Table("", out_schema)
             : Table::FromBatches("", out_schema, std::move(out_batches));

  if (stage_span) {
    stage_span.AddArg("in_rows", static_cast<uint64_t>(n));
    stage_span.AddArg("in_bytes", in_bytes);
    stage_span.AddArg("fused_stages", static_cast<uint64_t>(k));
    stage_span.End();
  }

  if (stages != nullptr) {
    for (size_t i = 0; i < k; ++i) {
      LfStageRun run;
      run.lf_name = lfs[s + i].name;
      run.kind = udf::LfKind::kMap;
      if (i == 0) {
        run.in_rows = n;
        run.in_bytes = in_bytes;
        run.wall_seconds = wall_s;
        run.max_task_seconds = wave_max_s;
      } else {
        run.in_rows = stages->back().out_rows;
        run.in_bytes = stages->back().out_bytes;
      }
      for (size_t t = 0; t < splits.size(); ++t) {
        run.out_rows += out_rows[t][i];
        run.out_bytes += out_bytes[t][i];
      }
      stages->push_back(std::move(run));
    }
  }
  return Status::OK();
}

}  // namespace

Status RunLocalFunctions(const udf::UdfDefinition& udf,
                         const storage::Table& input,
                         const udf::Params& params, storage::Table* output,
                         std::vector<LfStageRun>* stages,
                         const TaskCtx& ctx) {
  if (udf.local_functions.empty()) {
    return Status::InvalidArgument("UDF has no local functions: " + udf.name);
  }
  // Every stage reads the table its predecessor built (the UDF's input for
  // the first), batch by batch.
  Table cur = input;
  const auto& lfs = udf.local_functions;
  for (size_t stage_i = 0; stage_i < lfs.size();) {
    Table next;
    // A maximal run of consecutive map stages runs as one fused wave (no
    // intermediate materialization, one task set, one stage span).
    if (lfs[stage_i].kind == udf::LfKind::kMap) {
      size_t stage_e = stage_i + 1;
      while (stage_e < lfs.size() && lfs[stage_e].kind == udf::LfKind::kMap) {
        ++stage_e;
      }
      OPD_RETURN_NOT_OK(RunFusedMapStages(udf, stage_i, stage_e, cur, params,
                                          ctx, &next, stages));
      cur = std::move(next);
      stage_i = stage_e;
      continue;
    }

    const udf::LocalFunction& lf = lfs[stage_i];
    ++stage_i;
    LfStageRun run;
    run.lf_name = lf.name;
    run.kind = lf.kind;
    run.in_rows = cur.num_rows();
    run.in_bytes = cur.ByteSize();
    obs::TraceSpan stage_span(ctx.trace, ctx.parent_span, "stage:" + lf.name,
                              "stage");
    const auto start = std::chrono::steady_clock::now();
    OPD_RETURN_NOT_OK(RunReduceStage(lf, cur, params,
                                     ctx.Under(stage_span.id()), &next, &run));
    run.wall_seconds = SecondsSince(start);
    if (stage_span) {
      stage_span.AddArg("in_rows", run.in_rows);
      stage_span.AddArg("in_bytes", run.in_bytes);
      stage_span.End();
    }
    if (stages != nullptr) stages->push_back(run);
    cur = std::move(next);
  }
  *output = std::move(cur);
  return Status::OK();
}

Status RunUdf(const OpInput& in, const TaskCtx& ctx, OpResult* out) {
  // UDF local functions are opaque per-row/per-group user code, run a batch
  // (map) or a key group (reduce) at a time.
  const plan::OpNode& node = *in.node;
  OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                       in.udfs->Find(node.udf.udf_name));
  std::vector<LfStageRun> stage_runs;
  OPD_RETURN_NOT_OK(RunLocalFunctions(*def, *in.tables[0], node.udf.params,
                                      &out->table, &stage_runs, ctx));
  out->has_shuffle = def->HasShuffle();
  out->map_scalar = def->map_scalar;
  out->reduce_scalar = def->reduce_scalar;
  // Shuffle bytes: output of the last map stage before the first reduce
  // (the data that actually crosses the network). The job's straggler time
  // is the sum of its stage barriers' slowest tasks.
  bool saw_reduce = false;
  for (const LfStageRun& run : stage_runs) {
    if (!saw_reduce && run.kind == udf::LfKind::kReduce) {
      out->shuffle_bytes = run.in_bytes;
      saw_reduce = true;
    }
    out->max_task_s += run.max_task_seconds;
    out->reduce_tasks += run.reduce_tasks;
  }
  return Status::OK();
}

}  // namespace opd::exec
