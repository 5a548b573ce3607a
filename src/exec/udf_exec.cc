#include "exec/udf_exec.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "exec/hash/flat_table.h"

namespace opd::exec {

using storage::Row;
using storage::RowRange;
using storage::Schema;
using storage::Table;

namespace {

// One key group gathered during the shuffle, and what the reduce call over
// it emitted. Keeping outputs attached to their key lets the merge step
// re-establish the global key order independent of bucket/thread counts.
struct ReduceGroup {
  Row key;
  std::vector<Row> rows;      // shuffle input, in original row order
  std::vector<Row> emitted;   // reduce_fn output for this group
};

// Runs one reduce local function: hash-partition rows by key into reduce
// buckets, group and reduce each bucket as one task, then merge the groups'
// outputs in global key order — the same order the previous ordered-map
// implementation produced, regardless of bucket or thread counts.
Status RunReduceStage(const udf::LocalFunction& lf,
                      const udf::LfContext& lf_ctx,
                      const Schema& in_schema, std::vector<Row>* rows,
                      const TaskCtx& ctx, LfStageRun* run,
                      std::vector<Row>* out) {
  std::vector<size_t> key_idx;
  for (const std::string& key : lf.group_keys) {
    auto idx = in_schema.IndexOf(key);
    if (!idx) {
      return Status::InvalidArgument("reduce key not in schema: " + key);
    }
    key_idx.push_back(*idx);
  }

  const size_t n = rows->size();
  const uint64_t in_bytes = run->in_bytes;
  const size_t num_buckets = DeriveReduceTasks(ctx, in_bytes);
  run->reduce_tasks = num_buckets;
  auto key_of = [&key_idx](const Row& row) {
    Row key;
    key.reserve(key_idx.size());
    for (size_t i : key_idx) key.push_back(row[i]);
    return key;
  };

  // Per-row key hashes are computed once during partitioning and kept
  // here, so the flat group index never re-hashes a key.
  std::vector<uint64_t> hash_of(n);
  std::vector<std::vector<ReduceGroup>> bucket_groups(num_buckets);
  const double avg_row_bytes =
      n == 0 ? 0.0 : static_cast<double>(in_bytes) / static_cast<double>(n);
  double partition_max_s = 0, reduce_max_s = 0;

  // Fused partition: each producer hashes its split's keys straight into
  // its own per-bucket buffer slots; a bucket's reduce starts the moment
  // its last producer finishes (no partition barrier, no global scatter).
  const std::vector<RowRange> splits = storage::SplitRowsByBlockSize(
      n, avg_row_bytes, ctx.block_size_bytes);
  storage::PartitionBuffer<size_t> buf(splits.size(), num_buckets);
  OPD_RETURN_NOT_OK(RunPipelinedShuffle(
      ctx, splits.size(),
      [&](size_t t) -> Status {
        const RowRange& split = splits[t];
        buf.ReserveProducer(t, split.size());
        for (size_t r = split.begin; r < split.end; ++r) {
          const uint64_t h = hash::FlatRowKeyHash((*rows)[r], key_idx);
          hash_of[r] = h;
          buf.Append(t,
                     num_buckets <= 1 ? 0 : hash::BucketOf(h, num_buckets),
                     r);
        }
        return Status::OK();
      },
      num_buckets,
      [&](size_t b) -> Status {
        // The bucket yields its row indices in original row order, so each
        // group's input order, and so the reduce function's view of it, is
        // independent of the schedule. Rows are moved out of the shared
        // vector; buckets partition the index space, so concurrent reduce
        // tasks touch disjoint rows.
        std::vector<ReduceGroup>& groups = bucket_groups[b];
        hash::FlatGroupIndex group_index;
        group_index.Reserve(buf.BucketSize(b), 0);
        hash::KeyScratch key;
        buf.ForEachInBucket(b, [&](size_t r) {
          Row& row = (*rows)[r];
          hash::NormalizeKeyRow(row, key_idx, &key);
          auto [id, inserted] =
              group_index.InsertOrGet(hash_of[r], key.data(), key.size());
          if (inserted) {
            groups.emplace_back();
            groups.back().key = key_of(row);
          }
          groups[id].rows.push_back(std::move(row));
        });
        for (ReduceGroup& g : groups) {
          lf.reduce_fn(g.rows, lf_ctx, &g.emitted);
          g.rows.clear();
        }
        return Status::OK();
      },
      &partition_max_s, &reduce_max_s));
  run->max_task_seconds = partition_max_s + reduce_max_s;

  // Deterministic merge: emit every group's output in global key order.
  std::vector<ReduceGroup*> ordered;
  size_t num_groups = 0, total_rows = 0;
  for (auto& groups : bucket_groups) num_groups += groups.size();
  ordered.reserve(num_groups);
  for (auto& groups : bucket_groups) {
    for (ReduceGroup& g : groups) {
      ordered.push_back(&g);
      total_rows += g.emitted.size();
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ReduceGroup* a, const ReduceGroup* b) {
              return RowLess()(a->key, b->key);
            });
  out->reserve(out->size() + total_rows);
  for (ReduceGroup* g : ordered) {
    for (Row& r : g->emitted) out->push_back(std::move(r));
  }
  return Status::OK();
}

// Checks one emitted row against the stage's output schema (a cheap sanity
// check on user code).
Status CheckArity(const udf::LocalFunction& lf, const Row& r,
                  const Schema& out_schema) {
  if (r.size() == out_schema.num_columns()) return Status::OK();
  return Status::Internal("local function " + lf.name +
                          " emitted row of arity " + std::to_string(r.size()) +
                          ", schema has " +
                          std::to_string(out_schema.num_columns()));
}

// The rows a fused map group reads: the UDF's input table, or the rows the
// previous (reduce) stage emitted when `table` is null.
struct MapInput {
  const Table* table = nullptr;
  const std::vector<Row>* rows = nullptr;
};

// Runs the consecutive map stages [s, e) of `udf` (one or more) as ONE
// fused wave over `input`, split into block-sized tasks: each task streams
// its input split through every stage's map function in turn (ping-pong
// buffers), so intermediate stage outputs never materialize globally.
// Task-order concatenation of the final partials equals a serial pass,
// because map functions are applied row-at-a-time in order. A task reads an
// input table batch by batch into one scratch row, so the table's rows are
// never built all at once. The group's output goes to `out` as rows, or,
// when the group ends the UDF, into `out_table`: each task then builds the
// batches of its share in parallel, with dictionaries of its own.
//
// Accounting stays per stage: boundary row/byte counts are summed across
// tasks, and the group's wall/straggler time is attributed to the first
// stage of the group (so per-kind wall sums, which calibration consumes,
// are preserved). Appends one LfStageRun per fused stage.
Status RunFusedMapStages(const udf::UdfDefinition& udf, size_t s, size_t e,
                         const MapInput& input, const udf::Params& params,
                         const TaskCtx& ctx, Schema* cur_schema,
                         std::vector<Row>* out, Table* out_table,
                         std::vector<LfStageRun>* stages) {
  const auto& lfs = udf.local_functions;
  const size_t k = e - s;

  // Resolve the schema chain and per-stage contexts up front.
  std::vector<Schema> schemas;
  schemas.reserve(k + 1);
  schemas.push_back(std::move(*cur_schema));
  std::string fused_name;
  for (size_t i = s; i < e; ++i) {
    if (!lfs[i].map_fn) {
      return Status::Internal("map local function missing body: " +
                              lfs[i].name);
    }
    OPD_ASSIGN_OR_RETURN(Schema next,
                         lfs[i].out_schema(schemas.back(), params));
    schemas.push_back(std::move(next));
    if (!fused_name.empty()) fused_name += "+";
    fused_name += lfs[i].name;
  }
  std::vector<udf::LfContext> ctxs(k);
  for (size_t i = 0; i < k; ++i) {
    ctxs[i].in_schema = &schemas[i];
    ctxs[i].out_schema = &schemas[i + 1];
    ctxs[i].params = &params;
  }

  size_t n = 0;
  uint64_t in_bytes = 0;
  std::optional<BatchList> list;
  if (input.table != nullptr) {
    list.emplace(*input.table);
    n = list->num_rows;
    in_bytes = input.table->ByteSize();
  } else {
    n = input.rows->size();
    for (const Row& r : *input.rows) in_bytes += storage::RowByteSize(r);
  }
  const double avg_row_bytes =
      n == 0 ? 0.0 : static_cast<double>(in_bytes) / static_cast<double>(n);
  const std::vector<RowRange> splits = storage::SplitRowsByBlockSize(
      n, avg_row_bytes, ctx.block_size_bytes);

  obs::TraceSpan stage_span(ctx.trace, ctx.parent_span, "stage:" + fused_name,
                            "stage");
  const auto start = std::chrono::steady_clock::now();

  // Per-task outputs plus per-task counts at each stage boundary (boundary
  // j = output of stage s+j, 0 <= j < k).
  std::vector<std::vector<Row>> partials(out_table == nullptr ? splits.size()
                                                              : 0);
  std::vector<Table> parts(out_table == nullptr ? 0 : splits.size());
  std::vector<double> build_s(parts.size(), 0.0);
  std::vector<std::vector<uint64_t>> out_rows(splits.size());
  std::vector<std::vector<uint64_t>> out_bytes(splits.size());
  double wave_max_s = 0;
  OPD_RETURN_NOT_OK(RunPhase(
      ctx.Under(stage_span.id()), "pipeline", splits.size(),
      [&](size_t t) -> Status {
        const RowRange& split = splits[t];
        out_rows[t].assign(k, 0);
        out_bytes[t].assign(k, 0);
        std::vector<Row> cur, next;
        cur.reserve(split.size());
        if (input.table == nullptr) {
          for (size_t r = split.begin; r < split.end; ++r) {
            lfs[s].map_fn((*input.rows)[r], ctxs[0], &cur);
          }
        } else if (split.size() > 0) {
          Row scratch;
          const std::vector<size_t>& offsets = list->offsets;
          size_t b = static_cast<size_t>(
              std::upper_bound(offsets.begin(), offsets.end(), split.begin) -
              offsets.begin() - 1);
          for (size_t r = split.begin; r < split.end; ++r) {
            while (r - offsets[b] >= list->batch(b).num_rows()) ++b;
            list->batch(b).ReadRow(r - offsets[b], &scratch);
            lfs[s].map_fn(scratch, ctxs[0], &cur);
          }
        }
        for (size_t i = 0; i < k; ++i) {
          if (i > 0) {
            next.clear();
            for (const Row& r : cur) lfs[s + i].map_fn(r, ctxs[i], &next);
            cur.swap(next);
          }
          // Account + validate the output of stage s+i.
          for (const Row& r : cur) {
            OPD_RETURN_NOT_OK(CheckArity(lfs[s + i], r, schemas[i + 1]));
            out_bytes[t][i] += storage::RowByteSize(r);
          }
          out_rows[t][i] = cur.size();
        }
        if (out_table == nullptr) {
          partials[t] = std::move(cur);
          return Status::OK();
        }
        const auto build_start = std::chrono::steady_clock::now();
        parts[t] = Table("", schemas[k]);
        for (Row& r : cur) OPD_RETURN_NOT_OK(parts[t].AppendRow(std::move(r)));
        build_s[t] = SecondsSince(build_start);
        return Status::OK();
      },
      &wave_max_s));
  // The output build is not user code, so it stays out of the group's
  // wall time (exactly so for a serial run, as calibration makes).
  double wall_s = SecondsSince(start);
  for (double b : build_s) wall_s -= b;
  wall_s = std::max(wall_s, 0.0);

  if (out_table == nullptr) {
    size_t total = 0;
    for (const auto& p : partials) total += p.size();
    out->clear();
    out->reserve(total);
    for (auto& p : partials) {
      for (Row& r : p) out->push_back(std::move(r));
    }
  } else {
    std::vector<storage::RowBatch> out_batches;
    for (const Table& part : parts) {
      for (const storage::RowBatch& b : *part.ToBatches()) {
        if (b.num_rows() > 0) out_batches.push_back(b);
      }
    }
    // An empty output keeps one empty batch, as an empty table has.
    if (out_batches.empty()) out_batches = *parts.front().ToBatches();
    *out_table = Table::FromBatches("", schemas[k], std::move(out_batches));
  }

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

  *cur_schema = std::move(schemas[k]);
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
  Schema cur_schema = input.schema();
  // A leading map group reads `input` in its tasks; every later stage reads
  // the rows its predecessor emitted. A leading reduce stage converts the
  // input into rows on this thread: as a pool wave of per-batch tasks the
  // conversion measured slower under concurrent serving, because a wave's
  // wait runs unrelated queued tasks on the waiting thread.
  const Table* table_input = &input;
  std::vector<Row> rows;

  const auto& lfs = udf.local_functions;
  for (size_t stage_i = 0; stage_i < lfs.size();) {
    // A maximal run of consecutive map stages runs as one fused wave (no
    // intermediate materialization, one task set, one stage span).
    if (lfs[stage_i].kind == udf::LfKind::kMap) {
      size_t stage_e = stage_i + 1;
      while (stage_e < lfs.size() && lfs[stage_e].kind == udf::LfKind::kMap) {
        ++stage_e;
      }
      if (stage_e == lfs.size()) {
        return RunFusedMapStages(udf, stage_i, stage_e,
                                 MapInput{table_input, &rows}, params, ctx,
                                 &cur_schema, nullptr, output, stages);
      }
      std::vector<Row> fused_out;
      OPD_RETURN_NOT_OK(RunFusedMapStages(
          udf, stage_i, stage_e, MapInput{table_input, &rows}, params, ctx,
          &cur_schema, &fused_out, nullptr, stages));
      table_input = nullptr;
      rows = std::move(fused_out);
      stage_i = stage_e;
      continue;
    }

    const udf::LocalFunction& lf = lfs[stage_i];
    ++stage_i;
    if (table_input != nullptr) {
      rows = input.rows();
      table_input = nullptr;
    }
    if (!lf.reduce_fn) {
      return Status::Internal("reduce local function missing body: " +
                              lf.name);
    }
    OPD_ASSIGN_OR_RETURN(Schema out_schema, lf.out_schema(cur_schema, params));
    udf::LfContext lf_ctx;
    lf_ctx.in_schema = &cur_schema;
    lf_ctx.out_schema = &out_schema;
    lf_ctx.params = &params;

    LfStageRun run;
    run.lf_name = lf.name;
    run.kind = lf.kind;
    run.in_rows = rows.size();
    for (const Row& r : rows) run.in_bytes += storage::RowByteSize(r);

    obs::TraceSpan stage_span(ctx.trace, ctx.parent_span, "stage:" + lf.name,
                              "stage");
    std::vector<Row> next_rows;
    const auto start = std::chrono::steady_clock::now();
    OPD_RETURN_NOT_OK(RunReduceStage(lf, lf_ctx, cur_schema, &rows,
                                     ctx.Under(stage_span.id()), &run,
                                     &next_rows));
    run.wall_seconds = SecondsSince(start);
    if (stage_span) {
      stage_span.AddArg("in_rows", run.in_rows);
      stage_span.AddArg("in_bytes", run.in_bytes);
      stage_span.End();
    }

    for (const Row& r : next_rows) {
      OPD_RETURN_NOT_OK(CheckArity(lf, r, out_schema));
      run.out_bytes += storage::RowByteSize(r);
    }
    run.out_rows = next_rows.size();
    if (stages != nullptr) stages->push_back(run);

    cur_schema = std::move(out_schema);
    rows = std::move(next_rows);
  }

  Table result("", cur_schema);
  for (Row& row : rows) {
    OPD_RETURN_NOT_OK(result.AppendRow(std::move(row)));
  }
  *output = std::move(result);
  return Status::OK();
}

Status RunUdf(const OpInput& in, const TaskCtx& ctx, OpResult* out) {
  // UDF local functions are opaque per-row/per-group user code: the engine
  // falls back to row-at-a-time execution at this boundary.
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
