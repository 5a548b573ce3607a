// The parallel engine's determinism contract: running the same workload at
// any thread count, shuffle fan-out, or with recycling on or off produces
// byte-identical result tables, identical view fingerprints, and identical
// byte-count metrics (and therefore identical modeled cluster time). These
// settings change only wall-clock time. Correctness itself is checked
// against the reference interpreter (reference_exec.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "plan/fingerprint.h"
#include "reference_exec.h"
#include "session/session.h"
#include "storage/table.h"
#include "workload/queries.h"
#include "workload/scenarios.h"

namespace opd::workload {
namespace {

// Server recycler budgets: zero attaches no recycler; the default is on.
constexpr uint64_t kNoRecycling = 0;
const uint64_t kRecycling = ServerOptions{}.recycle_budget_bytes;

TestBedConfig BedConfig(int num_threads, int num_reduce_tasks,
                        uint64_t recycle_budget_bytes) {
  TestBedConfig config;
  config.data.n_tweets = 400;
  config.data.n_checkins = 250;
  config.data.n_locations = 60;
  config.data.n_users = 40;
  config.calibrate_udfs = false;
  config.session.engine.num_threads = num_threads;
  config.session.engine.num_reduce_tasks = num_reduce_tasks;
  config.session.server.recycle_budget_bytes = recycle_budget_bytes;
  return config;
}

// Everything one workload run produces that must not depend on threading.
struct WorkloadSnapshot {
  std::vector<std::vector<storage::Row>> tables;
  std::vector<std::string> fingerprints;  // sorted view fingerprints
  std::vector<uint64_t> bytes;            // read/shuffled/written per run
  std::vector<double> sim_times;
  int jobs = 0;
  int views_created = 0;
};

// The workload slice: three analysts' original queries (projections,
// filters, joins, group-bys, and UDF pipelines), then a rewritten revision
// that reuses the accumulated opportunistic views.
const std::vector<std::pair<int, int>> kOriginals = {{1, 1}, {2, 1}, {3, 1}};
const std::pair<int, int> kRevision = {1, 2};

// Runs the workload slice and snapshots what it produced.
WorkloadSnapshot RunWorkload(
    int num_threads, int num_reduce_tasks = 0,
    uint64_t recycle_budget_bytes = kRecycling) {
  auto bed_result = TestBed::Create(
      BedConfig(num_threads, num_reduce_tasks, recycle_budget_bytes));
  EXPECT_TRUE(bed_result.ok()) << bed_result.status().ToString();
  std::unique_ptr<TestBed> bed = std::move(bed_result).value();

  WorkloadSnapshot snap;
  auto record = [&snap](const exec::ExecResult& run) {
    snap.tables.push_back(run.table->rows());
    snap.bytes.push_back(run.metrics.bytes_read);
    snap.bytes.push_back(run.metrics.bytes_shuffled);
    snap.bytes.push_back(run.metrics.bytes_written);
    snap.sim_times.push_back(run.metrics.sim_time_s);
    snap.jobs += run.metrics.jobs;
    snap.views_created += run.metrics.views_created;
  };

  for (const auto& [analyst, version] : kOriginals) {
    auto run = bed->RunOriginal(analyst, version);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (run.ok()) record(*run);
  }
  auto rewritten = bed->RunRewritten(kRevision.first, kRevision.second);
  EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  if (rewritten.ok()) record(rewritten->exec);

  for (const auto* def : bed->views().All()) {
    snap.fingerprints.push_back(def->fingerprint);
  }
  std::sort(snap.fingerprints.begin(), snap.fingerprints.end());
  return snap;
}

void ExpectIdentical(const WorkloadSnapshot& a, const WorkloadSnapshot& b) {
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t t = 0; t < a.tables.size(); ++t) {
    ASSERT_EQ(a.tables[t].size(), b.tables[t].size()) << "table " << t;
    for (size_t r = 0; r < a.tables[t].size(); ++r) {
      ASSERT_EQ(a.tables[t][r], b.tables[t][r])
          << "table " << t << " row " << r;
    }
  }
  EXPECT_EQ(a.fingerprints, b.fingerprints);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.views_created, b.views_created);
  ASSERT_EQ(a.sim_times.size(), b.sim_times.size());
  for (size_t i = 0; i < a.sim_times.size(); ++i) {
    // Modeled time is pure arithmetic over the (identical) byte counts.
    EXPECT_DOUBLE_EQ(a.sim_times[i], b.sim_times[i]) << "run " << i;
  }
}

TEST(ParallelDeterminismTest, SameResultsAtOneTwoAndEightThreads) {
  WorkloadSnapshot one = RunWorkload(1);
  ASSERT_FALSE(one.tables.empty());
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(one, RunWorkload(threads));
  }
}

TEST(ParallelDeterminismTest, ReduceTaskCountDoesNotChangeResults) {
  // Bucket granularity, like thread count, must never leak into results:
  // force an odd bucket count well off the bytes-derived default.
  WorkloadSnapshot derived = RunWorkload(1);
  WorkloadSnapshot forced = RunWorkload(4, /*num_reduce_tasks=*/13);
  ExpectIdentical(derived, forced);
}

// Hash-table recycling is a pure time optimization: a server without a
// recycler produces the same snapshot as one with it.
TEST(ParallelDeterminismTest, RecyclingDoesNotChangeResults) {
  WorkloadSnapshot off = RunWorkload(1, 0, kNoRecycling);
  ASSERT_FALSE(off.tables.empty());
  ExpectIdentical(off, RunWorkload(1));
  ExpectIdentical(off, RunWorkload(8));
}

// Checks the output of every job `run` executed — each retained view,
// found by its plan fingerprint — against the reference interpreter's
// evaluation of the job's subtree. Returns the number of jobs checked.
size_t ExpectJobsMatchReference(TestBed& bed, const RunResult& run) {
  const reference::ScanFn scans =
      reference::StoreScans(bed.catalog(), bed.views(), bed.dfs());
  size_t checked = 0;
  for (const plan::OpNodePtr& node : run.plan.TopoOrder()) {
    if (node->kind == plan::OpKind::kScan) continue;
    const std::string fingerprint = plan::Fingerprint(node);
    for (const catalog::ViewDefinition* def : bed.views().All()) {
      if (def->fingerprint != fingerprint) continue;
      SCOPED_TRACE(node->DisplayName());
      auto got = bed.dfs().Peek(def->dfs_path);
      auto want = reference::Evaluate(node, scans, bed.udfs());
      EXPECT_TRUE(got.ok() && want.ok());
      if (got.ok() && want.ok()) {
        EXPECT_TRUE(reference::SameRows(*want, (*got)->rows()));
        ++checked;
      }
      break;
    }
  }
  return checked;
}

// The engine computes what the reference interpreter computes: every job of
// every original query of the slice, and the rewritten revision's result
// against its original plan (the paper's contract: rewritten == original).
TEST(ParallelDeterminismTest, WorkloadMatchesReferenceInterpreter) {
  auto bed_result = TestBed::Create(BedConfig(4, 0, kRecycling));
  ASSERT_TRUE(bed_result.ok()) << bed_result.status().ToString();
  TestBed& bed = **bed_result;
  RunOptions no_rewrite;
  no_rewrite.rewrite = false;
  size_t jobs_checked = 0;
  for (const auto& [analyst, version] : kOriginals) {
    SCOPED_TRACE("A" + std::to_string(analyst) + "v" +
                 std::to_string(version));
    auto plan = BuildQuery(analyst, version);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto run = bed.session().Run(std::move(*plan), no_rewrite);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    jobs_checked += ExpectJobsMatchReference(bed, *run);
  }
  EXPECT_GE(jobs_checked, 6u);

  auto revised = BuildQuery(kRevision.first, kRevision.second);
  ASSERT_TRUE(revised.ok()) << revised.status().ToString();
  auto want = reference::EvaluatePlan(
      bed.session(), plan::Plan(plan::CloneTree(revised->root()), "original"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto rewritten = bed.session().Run(std::move(*revised));
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_TRUE(rewritten->rewritten && rewritten->rewrite.improved);
  EXPECT_TRUE(
      reference::SameRows(*want, rewritten->table->rows()));
}

// Heavy key skew with a forced odd bucket count: the light buckets' last
// producer hands them off (per-bucket countdown latch) while the heavy
// bucket's producers are still running, exercising the early-handoff path
// that a uniform workload rarely hits. The query runs twice per session, so
// with recycling on the second run replays the cached grouping routes.
// Every run must be byte-identical to the serial run without recycling and
// must match the reference interpreter.
TEST(ParallelDeterminismTest, SkewedKeysAreThreadAndModeInvariant) {
  const std::string oql =
      "g = scan SKEW | groupby k count(*) as n, sum(v) as s;";
  auto run_skewed = [&](int num_threads, uint64_t recycle_budget_bytes) {
    SessionOptions options;
    options.engine.num_threads = num_threads;
    options.engine.num_reduce_tasks = 7;
    options.server.recycle_budget_bytes = recycle_budget_bytes;
    auto session = Session::Create(options);
    EXPECT_TRUE(session.ok()) << session.status().ToString();

    auto skew = std::make_shared<storage::Table>(
        "SKEW",
        storage::Schema({{"k", storage::DataType::kInt64},
                         {"v", storage::DataType::kInt64}}));
    // ~90% of rows share one key; the rest spread over 40 keys.
    for (int64_t i = 0; i < 4000; ++i) {
      const int64_t key = (i % 10 == 0) ? 1 + i % 40 : 0;
      EXPECT_TRUE(
          skew->AppendRow({storage::Value(key), storage::Value(i * 7 % 101)})
              .ok());
    }
    EXPECT_TRUE(
        (*session)
            ->RegisterTable(storage::TablePtr(std::move(skew)), {"k"})
            .ok());

    RunOptions no_rewrite;
    no_rewrite.rewrite = false;
    std::vector<std::vector<storage::Row>> runs;
    for (int rep = 0; rep < 2; ++rep) {
      auto run = (*session)->Run(oql, no_rewrite);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      if (run.ok() && run->table != nullptr) runs.push_back(run->table->rows());
    }
    auto want = reference::EvaluateOql(**session, oql);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (want.ok()) {
      for (const auto& rows : runs) {
        EXPECT_TRUE(reference::SameRows(*want, rows));
      }
    }
    return runs;
  };

  const auto serial = run_skewed(/*num_threads=*/1, kNoRecycling);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_FALSE(serial[0].empty());
  EXPECT_EQ(serial[0], serial[1]);
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto recycled = run_skewed(threads, kRecycling);
    ASSERT_EQ(recycled.size(), 2u);
    EXPECT_EQ(serial[0], recycled[0]);
    EXPECT_EQ(serial[0], recycled[1]);
  }
}

}  // namespace
}  // namespace opd::workload
