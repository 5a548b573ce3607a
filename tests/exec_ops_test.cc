// Operator-interface tests: how UDF jobs report their tasks, and that a
// failing operator's error is what Execute returns under both job
// schedules (serial when traced or single-threaded, DAG otherwise), with no
// view published.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "exec/engine.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "server/server.h"
#include "session/session.h"
#include "storage/table.h"
#include "storage/value.h"
#include "udf/builtin_udfs.h"
#include "workload/scenarios.h"

namespace opd {
namespace {

using storage::Column;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Table;
using storage::Value;

// --- UDF task accounting -----------------------------------------------------

// Runs a word-count plan and a hashtag-trends plan at `num_reduce_tasks`
// and returns each UDF job's record, in that order.
std::vector<exec::JobRun> RunUdfJobs(int num_reduce_tasks) {
  workload::TestBedConfig config;
  config.data.n_tweets = 800;
  config.data.n_checkins = 100;
  config.data.n_locations = 20;
  config.data.n_users = 80;
  config.calibrate_udfs = false;
  config.session.engine.num_reduce_tasks = num_reduce_tasks;
  auto bed = workload::TestBed::Create(config);
  EXPECT_TRUE(bed.ok()) << bed.status().ToString();
  if (!bed.ok()) return {};

  auto tweets = [] {
    return plan::Project(plan::Scan("TWTR"), {"user_id", "tweet_text"});
  };
  std::vector<plan::Plan> plans;
  plans.emplace_back(plan::Udf(plan::Udf(tweets(), "UDF_TOKENIZE"),
                               "UDF_WORD_COUNT",
                               {{"min_count", Value(0.0)}}));
  plans.emplace_back(plan::Udf(tweets(), "UDF_HASHTAG_TRENDS",
                               {{"min_users", Value(0.0)}}));
  const std::string names[] = {"UDF_WORD_COUNT", "UDF_HASHTAG_TRENDS"};
  RunOptions opts;
  opts.rewrite = false;
  std::vector<exec::JobRun> out;
  for (size_t i = 0; i < plans.size(); ++i) {
    auto run = (*bed)->session().Run(std::move(plans[i]), opts);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (!run.ok()) return {};
    for (const exec::JobRun& jr : run->jobs) {
      if (jr.op != "UDF(" + names[i] + ")") continue;
      out.push_back(jr);
      // EXPLAIN ANALYZE renders the same counts.
      const std::string tree = run->ExplainAnalyze();
      EXPECT_NE(tree.find("tasks=" + std::to_string(jr.map_tasks) + "p+" +
                          std::to_string(jr.reduce_tasks) + "r"),
                std::string::npos)
          << tree;
    }
  }
  EXPECT_EQ(out.size(), 2u);
  return out;
}

size_t ReduceStages(const std::string& udf_name) {
  udf::UdfRegistry registry;
  EXPECT_TRUE(udf::RegisterBuiltinUdfs(&registry).ok());
  auto def = registry.Find(udf_name);
  EXPECT_TRUE(def.ok());
  size_t n = 0;
  for (const udf::LocalFunction& lf : (*def)->local_functions) {
    if (lf.kind == udf::LfKind::kReduce) ++n;
  }
  return n;
}

TEST(UdfJobTasks, ReduceBucketsCountAsReduceTasks) {
  const std::vector<exec::JobRun> at13 = RunUdfJobs(13);
  const std::vector<exec::JobRun> at1 = RunUdfJobs(1);
  ASSERT_EQ(at13.size(), 2u);
  ASSERT_EQ(at1.size(), 2u);
  const size_t stages[] = {ReduceStages("UDF_WORD_COUNT"),
                           ReduceStages("UDF_HASHTAG_TRENDS")};
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(at13[i].op);
    ASSERT_GT(stages[i], 0u);
    EXPECT_EQ(at13[i].reduce_tasks, 13 * stages[i]);
    EXPECT_EQ(at1[i].reduce_tasks, stages[i]);
    // Map tasks are the fused map waves plus the reduce stages' partition
    // producers: they depend on the input splits, not on the bucket count.
    EXPECT_GT(at13[i].map_tasks, 0u);
    EXPECT_EQ(at13[i].map_tasks, at1[i].map_tasks);
  }
}

// --- Failure path under both schedules ---------------------------------------

// UDF_TOKENIZE's model whose map emits rows with only their passed
// user_id cell into its two-column output schema.
udf::UdfDefinition WrongArityUdf() {
  udf::UdfDefinition def = udf::MakeTokenizeUdf();
  def.name = "UDF_WRONG_ARITY";
  def.local_functions[0].map_fn = [](const storage::RowBatch& in,
                                     const udf::LfContext&,
                                     udf::BatchBuilder* out) {
    for (uint32_t i = 0; i < in.num_rows(); ++i) out->Keep(i);
  };
  return def;
}

// Join(UDF_WRONG_ARITY(T), Project(U)): two independent branches joined at
// the sink, so the DAG schedule runs the failing UDF job concurrently with
// the other branch and the join then finds a missing child result.
plan::Plan TwoBranchPlan(const char* udf_name) {
  return plan::Plan(plan::Join(
      plan::Udf(plan::Scan("T"), udf_name),
      plan::Project(plan::Scan("U"), {"user_id", "city"}),
      {{"user_id", "user_id"}}));
}

class ExecFailurePath
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  void SetUp() override {
    const auto [threads, traced] = GetParam();
    SessionOptions options;
    options.engine.num_threads = threads;
    options.obs.tracing = traced;
    auto server = Server::Create(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();

    auto t = std::make_shared<Table>(
        "T", Schema({Column{"user_id", DataType::kInt64},
                     Column{"tweet_text", DataType::kString}}));
    auto u = std::make_shared<Table>(
        "U", Schema({Column{"user_id", DataType::kInt64},
                     Column{"city", DataType::kString}}));
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(t->AppendRow({Value(i % 40), Value("wine and food")}).ok());
      ASSERT_TRUE(u->AppendRow({Value(i), Value("city")}).ok());
    }
    ASSERT_TRUE(server_->RegisterTable(t, {"user_id"}).ok());
    ASSERT_TRUE(server_->RegisterTable(u, {"user_id"}).ok());
    ASSERT_TRUE(server_->udfs().Register(udf::MakeTokenizeUdf()).ok());
    ASSERT_TRUE(server_->udfs().Register(WrongArityUdf()).ok());
  }

  std::unique_ptr<Server> server_;
};

void ExpectArityError(const Status& status) {
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("emitted row of arity 1"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.ToString().find("missing child result"), std::string::npos)
      << status.ToString();
}

TEST_P(ExecFailurePath, ExecuteReturnsTheFailedJobsError) {
  const bool traced = std::get<1>(GetParam());
  obs::Trace trace;
  plan::Plan plan = TwoBranchPlan("UDF_WRONG_ARITY");
  auto result =
      server_->engine().Execute(&plan, traced ? &trace : nullptr, 0);
  ExpectArityError(result.status());
}

TEST_P(ExecFailurePath, ServerRunPublishesNoView) {
  ClientSession client = server_->Connect("analyst");
  // Unrewritten, so both branches run as jobs.
  RunOptions opts;
  opts.rewrite = false;
  // A good run first, so the store holds views and a nonzero epoch.
  auto good = client.Run(TwoBranchPlan("UDF_TOKENIZE"), opts);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  const size_t views = server_->views().size();
  const catalog::Epoch epoch = server_->views().epoch();
  ASSERT_GT(views, 0u);

  auto bad = client.Run(TwoBranchPlan("UDF_WRONG_ARITY"), opts);
  ExpectArityError(bad.status());
  EXPECT_EQ(server_->views().size(), views);
  EXPECT_EQ(server_->views().epoch(), epoch);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndTracing, ExecFailurePath,
    ::testing::Combine(::testing::Values(1, 2, 4, 8), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) + "threads_" +
             (std::get<1>(info.param) ? "traced" : "untraced");
    });

}  // namespace
}  // namespace opd
