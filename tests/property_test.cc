// Randomized property tests: generate random plans, mutate them the way
// analysts revise queries, and check the system-level invariants —
// execution agrees with the reference interpreter (reference_exec.h) and is
// deterministic, annotation is stable, and above all every rewrite
// BFREWRITE produces computes exactly the original result.

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "exec/hash/recycler.h"
#include "execute_and_publish.h"
#include "plan/fingerprint.h"
#include "reference_exec.h"
#include "rewrite/bf_rewrite.h"
#include "storage/dfs.h"
#include "udf/builtin_udfs.h"

namespace opd {
namespace {

using plan::AggFn;
using plan::AggSpec;
using plan::FilterCond;
using plan::OpNodePtr;
using storage::Column;
using storage::DataType;
using storage::Schema;
using storage::Table;
using storage::Value;

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(udf::RegisterBuiltinUdfs(&udfs_).ok());
    Schema schema({Column{"tweet_id", DataType::kInt64},
                   Column{"user_id", DataType::kInt64},
                   Column{"tweet_text", DataType::kString},
                   Column{"mention_user", DataType::kInt64},
                   Column{"retweets", DataType::kInt64}});
    auto t = std::make_shared<Table>("TWTR", schema);
    Rng rng(99);
    const char* texts[] = {"wine merlot tonight", "pasta tasty dinner",
                           "plain words here", "yacht champagne",
                           "bland stale", "delicious wine brunch"};
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(t->AppendRow({Value(int64_t{i}),
                                Value(int64_t{static_cast<int64_t>(
                                    rng.Zipf(20, 0.7))}),
                                Value(texts[rng.Uniform(6)]),
                                Value(int64_t{rng.Bernoulli(0.3)
                                                  ? static_cast<int64_t>(
                                                        rng.Uniform(20))
                                                  : -1}),
                                Value(int64_t{static_cast<int64_t>(
                                    rng.Uniform(50))})})
                      .ok());
    }
    ASSERT_TRUE(catalog_.RegisterBase(t, {"tweet_id"}, &dfs_).ok());
    plan::AnnotationContext ctx{&catalog_, &views_, &udfs_};
    optimizer_ = std::make_unique<optimizer::Optimizer>(
        ctx, optimizer::CostModel());
    engine_ = std::make_unique<exec::Engine>(&dfs_, optimizer_.get());
    // Repeated scans of TWTR recycle join builds and group-by routes, so
    // the checks below cover recycled execution too.
    engine_->set_recycler(&recycler_);
    bfr_ = std::make_unique<rewrite::BfRewriter>(optimizer_.get(), &views_);
  }

  // Random plan generator: walks op choices keeping track of available
  // columns. Mirrors the shapes analysts write (extract -> classify/group
  // -> filter), parameterized by the RNG.
  plan::Plan RandomPlan(Rng* rng) {
    OpNodePtr node = plan::Scan("TWTR");
    std::vector<std::string> cols = {"tweet_id", "user_id", "tweet_text",
                                     "mention_user", "retweets"};
    std::string numeric_col = "retweets";
    bool aggregated = false;
    int ops = 2 + static_cast<int>(rng->Uniform(4));
    for (int i = 0; i < ops; ++i) {
      switch (rng->Uniform(4)) {
        case 0: {  // project a subset, always keeping user_id + tweet_text
          if (aggregated) break;
          std::vector<std::string> keep = {"user_id", "tweet_text"};
          for (const char* extra : {"tweet_id", "mention_user", "retweets"}) {
            if (std::find(cols.begin(), cols.end(), extra) != cols.end() &&
                rng->Bernoulli(0.5)) {
              keep.push_back(extra);
            }
          }
          if (keep.size() == cols.size()) break;
          node = plan::Project(node, keep);
          cols = keep;
          break;
        }
        case 1: {  // numeric filter on whatever numeric column survives
          if (std::find(cols.begin(), cols.end(), numeric_col) ==
              cols.end()) {
            break;
          }
          node = plan::Filter(
              node, FilterCond::Compare(
                        numeric_col,
                        rng->Bernoulli(0.5) ? afk::CmpOp::kGt
                                            : afk::CmpOp::kLt,
                        Value(static_cast<double>(rng->Uniform(40)))));
          break;
        }
        case 2: {  // classifier UDF
          if (aggregated) break;
          if (std::find(cols.begin(), cols.end(), "tweet_text") ==
              cols.end()) {
            break;
          }
          const char* udf = rng->Bernoulli(0.5) ? "UDF_CLASSIFY_WINE_SCORE"
                                                : "UDF_CLASSIFY_FOOD_SCORE";
          double thr = 0.1 + 0.2 * static_cast<double>(rng->Uniform(5));
          node = plan::Udf(node, udf, {{"threshold", Value(thr)}});
          numeric_col = std::string(udf) == "UDF_CLASSIFY_WINE_SCORE"
                            ? "wine_score"
                            : "sent_sum";
          cols = {"user_id", numeric_col};
          aggregated = true;
          break;
        }
        case 3: {  // group by user
          if (aggregated) break;
          node = plan::GroupBy(node, {"user_id"},
                               {AggSpec{AggFn::kCount, "", "n"}});
          numeric_col = "n";
          cols = {"user_id", "n"};
          aggregated = true;
          break;
        }
      }
    }
    return plan::Plan(node, "random");
  }

  // Mutates a plan the way a revision would: tweak one literal upward.
  plan::Plan Mutate(const plan::Plan& original, Rng* rng) {
    OpNodePtr root = plan::CloneTree(original.root());
    std::vector<OpNodePtr> nodes = plan::Plan(root).TopoOrder();
    // Collect mutable spots.
    std::vector<plan::OpNode*> spots;
    for (const auto& n : nodes) {
      if (n->kind == plan::OpKind::kFilter &&
          n->filter.kind == FilterCond::Kind::kCompare) {
        spots.push_back(n.get());
      }
      if (n->kind == plan::OpKind::kUdf &&
          n->udf.params.count("threshold")) {
        spots.push_back(n.get());
      }
    }
    if (!spots.empty()) {
      plan::OpNode* spot = spots[rng->Uniform(spots.size())];
      if (spot->kind == plan::OpKind::kFilter) {
        // Tighten: for kGt raise, for kLt lower.
        double lit = spot->filter.literal.ToDouble();
        spot->filter.literal = Value(spot->filter.op == afk::CmpOp::kGt
                                         ? lit + 3.0
                                         : std::max(lit - 3.0, 0.0));
      } else {
        double thr = spot->udf.params["threshold"].ToDouble();
        spot->udf.params["threshold"] = Value(thr + 0.2);  // tighten
      }
    }
    return plan::Plan(root, "mutated");
  }

  // The reference interpreter's result for (prepared) `plan`.
  reference::Rows Reference(const plan::Plan& plan) {
    auto rows = reference::Evaluate(
        plan.root(), reference::StoreScans(catalog_, views_, dfs_), udfs_);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? *rows : reference::Rows{};
  }

  Result<exec::ExecResult> Execute(plan::Plan* plan) {
    return testing_util::ExecuteAndPublish(engine_.get(), &views_, plan);
  }

  storage::Dfs dfs_;
  catalog::Catalog catalog_;
  catalog::ViewStore views_;
  udf::UdfRegistry udfs_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  exec::hash::HashRecycler recycler_;
  std::unique_ptr<exec::Engine> engine_;
  std::unique_ptr<rewrite::BfRewriter> bfr_;
};

// A plan computes what the reference interpreter computes, and running it
// again (now with recycled hash tables) reproduces the exact same bytes.
TEST_P(PropertyTest, ExecutionIsDeterministic) {
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 5; ++trial) {
    plan::Plan p1 = RandomPlan(&rng);
    plan::Plan p2(plan::CloneTree(p1.root()), "copy");
    auto r1 = Execute(&p1);
    auto r2 = Execute(&p2);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_TRUE(reference::SameRows(Reference(p1), r1.value().table->rows()))
        << "seed " << GetParam() << " trial " << trial;
    ASSERT_EQ(r1.value().table->num_rows(), r2.value().table->num_rows());
    EXPECT_EQ(r1.value().table->rows(), r2.value().table->rows());
  }
}

TEST_P(PropertyTest, AnnotationIsStable) {
  Rng rng(GetParam() * 104729 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    plan::Plan p1 = RandomPlan(&rng);
    plan::Plan p2(plan::CloneTree(p1.root()), "copy");
    ASSERT_TRUE(optimizer_->Prepare(&p1).ok());
    ASSERT_TRUE(optimizer_->Prepare(&p2).ok());
    EXPECT_TRUE(p1.root()->afk == p2.root()->afk);
    EXPECT_EQ(plan::Fingerprint(p1.root()), plan::Fingerprint(p2.root()));
    EXPECT_GE(p1.root()->est_rows, 0.0);
  }
}

// The headline property: any rewrite BFREWRITE chooses computes exactly the
// same result as the original plan.
TEST_P(PropertyTest, RewritesAreAlwaysEquivalent) {
  Rng rng(GetParam() * 6151 + 17);
  int improved_count = 0;
  for (int trial = 0; trial < 6; ++trial) {
    plan::Plan base = RandomPlan(&rng);
    auto seed_run = Execute(&base);  // populate views
    ASSERT_TRUE(seed_run.ok());

    plan::Plan revised = Mutate(base, &rng);
    plan::Plan revised_copy(plan::CloneTree(revised.root()), "orig");

    auto outcome = bfr_->Rewrite(&revised);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->improved) ++improved_count;

    plan::Plan best = outcome->plan;
    auto rewr_run = Execute(&best);
    auto orig_run = Execute(&revised_copy);
    ASSERT_TRUE(rewr_run.ok() && orig_run.ok());
    const reference::Rows want = Reference(revised_copy);
    EXPECT_TRUE(reference::SameRows(want, orig_run.value().table->rows()))
        << "engine disagrees with the reference for seed " << GetParam()
        << " trial " << trial;
    EXPECT_TRUE(reference::SameRows(want, rewr_run.value().table->rows()))
        << "rewrite changed the result for seed " << GetParam() << " trial "
        << trial;
  }
  // Mutated revisions tighten predicates, so most should find rewrites.
  EXPECT_GT(improved_count, 0);
}

// The estimated cost of the chosen rewrite never exceeds the original
// plan's estimated cost (the rewriter can always fall back to the original).
TEST_P(PropertyTest, RewriteNeverCostsMoreThanOriginal) {
  Rng rng(GetParam() * 31 + 5);
  for (int trial = 0; trial < 6; ++trial) {
    plan::Plan base = RandomPlan(&rng);
    ASSERT_TRUE(Execute(&base).ok());
    plan::Plan revised = Mutate(base, &rng);
    auto outcome = bfr_->Rewrite(&revised);
    ASSERT_TRUE(outcome.ok());
    EXPECT_LE(outcome->est_cost, outcome->original_cost + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace opd
