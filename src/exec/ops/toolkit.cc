// The task toolkit shared by every operator and the UDF runner (ops.h).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "exec/ops.h"

namespace opd::exec {

Status RunPhase(const TaskCtx& ctx, const char* phase, size_t n,
                const std::function<Status(size_t)>& fn,
                double* max_task_seconds) {
  if (ctx.tasks != nullptr) *ctx.tasks += n;
  if (ctx.trace == nullptr) {
    return ParallelFor(ctx.pool, n, fn, max_task_seconds);
  }
  obs::TraceSpan span(ctx.trace, ctx.parent_span, phase, "phase");
  span.AddArg("tasks", static_cast<uint64_t>(n));
  return obs::TracedParallelFor(ctx.pool, n, ctx.trace, span.id(), phase, fn,
                                max_task_seconds);
}

namespace {

// One task wave of a pipelined shuffle (its producers or its consumers):
// the phase span, the task span ids and the per-task results. The span
// structure is allocated at construction, on the serial path, so it never
// depends on task interleaving. Statuses are written only on failure and
// times once per task, so these arrays stay cold during the hot loops.
struct ShuffleWave {
  ShuffleWave(const TaskCtx& ctx, const char* phase, const char* task,
              size_t n, const std::function<Status(size_t)>& f)
      : trace(ctx.trace), fn(&f), task_name(task), status(n), seconds(n) {
    if (trace == nullptr || n == 0) return;
    span = obs::TraceSpan(trace, ctx.parent_span, phase, "phase");
    span.AddArg("tasks", static_cast<uint64_t>(n));
    ids = trace->AllocSpanIds(n);
  }

  void Run(size_t i) {
    obs::TraceSpan task;
    if (trace != nullptr) {
      task = obs::TraceSpan::Adopt(trace, ids + i, span.id(),
                                   task_name + std::to_string(i), "task",
                                   static_cast<uint32_t>(1 + i));
    }
    const auto start = std::chrono::steady_clock::now();
    Status st = RunGuarded(*fn, i);
    seconds[i] = SecondsSince(start);
    if (!st.ok()) status[i] = std::move(st);
  }

  // The lowest-index failure, with the slowest task's time.
  Status Finish(double* max_seconds) const {
    if (max_seconds != nullptr) {
      for (double s : seconds) *max_seconds = std::max(*max_seconds, s);
    }
    for (const Status& st : status) {
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  obs::Trace* trace;
  const std::function<Status(size_t)>* fn;
  std::string task_name;  // task span prefix, "<name>:"
  obs::TraceSpan span;
  uint64_t ids = 0;
  std::vector<Status> status;
  std::vector<double> seconds;
};

}  // namespace

Status RunPipelinedShuffle(const TaskCtx& ctx, size_t num_producers,
                           const std::function<Status(size_t)>& producer,
                           size_t num_buckets,
                           const std::function<Status(size_t)>& consumer,
                           double* max_producer_seconds,
                           double* max_consumer_seconds) {
  if (max_producer_seconds != nullptr) *max_producer_seconds = 0;
  if (max_consumer_seconds != nullptr) *max_consumer_seconds = 0;
  if (ctx.tasks != nullptr) *ctx.tasks += num_producers + num_buckets;
  if (num_producers == 0) return Status::OK();

  // Phase spans and task-id blocks in a fixed order: producers, then
  // consumers (the determinism contract in obs/trace.h).
  ShuffleWave producers(ctx, "pipeline", "pipeline:", num_producers, producer);
  ShuffleWave consumers(ctx, "reduce", "bucket:", num_buckets, consumer);

  ThreadPool* pool = ctx.pool;
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Inline execution: producers in order, then buckets in order — the
    // reference order every parallel schedule must be indistinguishable
    // from (modulo durations).
    for (size_t p = 0; p < num_producers; ++p) producers.Run(p);
    producers.span.End();
    for (size_t b = 0; b < num_buckets; ++b) consumers.Run(b);
    consumers.span.End();
  } else {
    // Latch-scheduled execution. bucket_remaining[b] counts unfinished
    // producers; the producer whose decrement reaches zero hands bucket b
    // to the pool right away (its acq_rel RMW orders every producer's
    // buffer writes before the consumer runs). `done` counts EVERY task —
    // producers and consumers — so this frame provably outlives all of
    // them: a consumer scheduled mid-way through the last producer's bucket
    // loop must not release the waiter while that producer still reads
    // bucket_remaining. The caller helps drain the pool while waiting, so
    // no thread idles and nested pipelines cannot deadlock.
    std::unique_ptr<std::atomic<size_t>[]> bucket_remaining;
    if (num_buckets > 0) {
      bucket_remaining =
          std::make_unique<std::atomic<size_t>[]>(num_buckets);
      for (size_t b = 0; b < num_buckets; ++b) {
        bucket_remaining[b].store(num_producers,
                                  std::memory_order_relaxed);
      }
    }
    CountdownLatch done(num_producers + num_buckets);
    auto consumer_task = [&](size_t b) {
      consumers.Run(b);
      done.CountDown();  // last action: see CountdownLatch destruction note
    };
    auto producer_task = [&](size_t p) {
      producers.Run(p);
      for (size_t b = 0; b < num_buckets; ++b) {
        if (bucket_remaining[b].fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          pool->Submit([&consumer_task, b] { consumer_task(b); });
        }
      }
      done.CountDown();  // last action: see CountdownLatch destruction note
    };
    for (size_t p = 0; p < num_producers; ++p) {
      pool->Submit([&producer_task, p] { producer_task(p); });
    }
    done.Wait(pool);
    producers.span.End();
    consumers.span.End();
  }

  // Producer failures win over consumer failures.
  const Status produced = producers.Finish(max_producer_seconds);
  const Status consumed = consumers.Finish(max_consumer_seconds);
  return produced.ok() ? consumed : produced;
}

size_t DeriveReduceTasks(const TaskCtx& ctx, uint64_t shuffle_bytes) {
  if (ctx.num_reduce_tasks > 0) {
    return static_cast<size_t>(ctx.num_reduce_tasks);
  }
  if (ctx.block_size_bytes == 0) return 1;
  // One reduce task per block of shuffle input (mirrors the map-side split
  // rule), capped so tiny jobs don't pay per-bucket overhead.
  return std::min<uint64_t>(shuffle_bytes / ctx.block_size_bytes + 1, 64);
}

Result<size_t> ColIndex(const storage::Schema& schema,
                        const std::string& name) {
  auto idx = schema.IndexOf(name);
  if (!idx) return Status::NotFound("column not found at exec: " + name);
  return *idx;
}

BatchList::BatchList(const storage::Table& t) : batches(t.ToBatches()) {
  offsets.reserve(batches->size());
  for (const storage::RowBatch& b : *batches) {
    offsets.push_back(num_rows);
    num_rows += b.num_rows();
  }
}

void PartitionBatch(const BatchList& list, size_t t,
                    const std::vector<size_t>& keys, RowPartition* buf,
                    uint64_t* hashes, uint32_t* buckets) {
  const storage::RowBatch& batch = list.batch(t);
  const size_t num_buckets = buf->num_buckets();
  buf->ReserveProducer(t, batch.num_rows());
  // Batch-wide columnar hash, then multiply-shift buckets.
  hashes += list.offsets[t];
  hash::HashKeys(batch, keys, hashes);
  if (buckets != nullptr) buckets += list.offsets[t];
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    const uint32_t b =
        num_buckets <= 1 ? 0 : hash::BucketOf(hashes[i], num_buckets);
    if (buckets != nullptr) buckets[i] = b;
    buf->Append(t, b,
                RowRef{static_cast<uint32_t>(t), static_cast<uint32_t>(i)});
  }
}

double BucketSkew(const RowPartition& buf) {
  size_t total = 0, largest = 0;
  for (size_t b = 0; b < buf.num_buckets(); ++b) {
    const size_t s = buf.BucketSize(b);
    total += s;
    largest = std::max(largest, s);
  }
  if (total == 0) return -1.0;
  return static_cast<double>(largest) *
         static_cast<double>(buf.num_buckets()) / static_cast<double>(total);
}

RecycleSlot::RecycleSlot(const OpInput& in, size_t child,
                         hash::RecycleKind kind,
                         const std::vector<size_t>& key_cols,
                         const hash::KeyCodec& codec, size_t num_buckets,
                         const BatchList& list, OpResult* out)
    : counters_(in.counters) {
  if (in.recycler == nullptr || in.recycle_ids[child].empty()) return;
  recycler_ = in.recycler;
  key_.kind = kind;
  key_.identity = in.recycle_ids[child];
  key_.key_cols = key_cols;
  for (hash::KeyColMode m : codec.modes) {
    key_.codec_modes.push_back(static_cast<uint8_t>(m));
  }
  key_.num_buckets = static_cast<uint32_t>(num_buckets);
  cached_ = recycler_->Lookup(key_, list.batches.get());
  if (cached_ != nullptr) {
    ++out->recycle_hits;
    if (counters_->recycle_hit != nullptr) counters_->recycle_hit->Inc();
    return;
  }
  ++out->recycle_misses;
  if (counters_->recycle_miss != nullptr) counters_->recycle_miss->Inc();
  pending_ = std::make_shared<hash::CachedBuild>();
  if (kind == hash::RecycleKind::kJoinBuildBatch) {
    pending_->join_batch.resize(num_buckets);
  } else {
    pending_->group_rows_batch.resize(num_buckets);
    pending_->group_of.resize(num_buckets);
    pending_->group_keys.resize(num_buckets);
  }
  pending_->batches = list.batches;
  pending_->pin = list.batches.get();
  pending_->view_id = in.node->children[child]->view_id;
}

void RecycleSlot::Commit(double build_cost_s) {
  if (pending_ == nullptr) return;
  pending_->build_cost_s = build_cost_s;
  const hash::HashRecycler::InsertResult r =
      recycler_->Insert(key_, std::move(pending_));
  if (counters_->recycle_insert != nullptr && r.inserted) {
    counters_->recycle_insert->Inc();
  }
  if (counters_->recycle_evict != nullptr && r.evicted > 0) {
    counters_->recycle_evict->Inc(r.evicted);
  }
  if (counters_->recycle_bytes != nullptr) {
    counters_->recycle_bytes->Set(static_cast<double>(recycler_->bytes()));
  }
}

}  // namespace opd::exec
