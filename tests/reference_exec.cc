#include "reference_exec.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "afk/predicate.h"
#include "oql/parser.h"
#include "reference_udfs.h"

namespace opd::reference {
namespace {

using storage::Row;
using storage::Schema;
using storage::Value;

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

// One relation flowing between plan nodes.
struct Rel {
  Schema schema;
  Rows rows;
};

Result<size_t> Col(const Schema& schema, const std::string& name) {
  auto idx = schema.IndexOf(name);
  if (!idx) return Status::NotFound("reference: no column " + name);
  return *idx;
}

Result<std::vector<size_t>> Cols(const Schema& schema,
                                 const std::vector<std::string>& names) {
  std::vector<size_t> out;
  for (const std::string& name : names) {
    OPD_ASSIGN_OR_RETURN(size_t i, Col(schema, name));
    out.push_back(i);
  }
  return out;
}

Row Pick(const Row& row, const std::vector<size_t>& cols) {
  Row out;
  for (size_t c : cols) out.push_back(row[c]);
  return out;
}

// One aggregate over one group, folded in input-row order.
struct Agg {
  int64_t count = 0;
  double sum = 0;
  std::optional<Value> min, max;

  void Add(const Value& v) {
    ++count;
    sum += v.ToDouble();
    if (!min || v < *min) min = v;
    if (!max || *max < v) max = v;
  }

  Value Finish(plan::AggFn fn, storage::DataType out_type) const {
    switch (fn) {
      case plan::AggFn::kCount:
        return Value(count);
      case plan::AggFn::kSum:
        return out_type == storage::DataType::kInt64
                   ? Value(static_cast<int64_t>(sum))
                   : Value(sum);
      case plan::AggFn::kAvg:
        return count == 0 ? Value::Null()
                          : Value(sum / static_cast<double>(count));
      case plan::AggFn::kMin:
        return min.value_or(Value::Null());
      case plan::AggFn::kMax:
        return max.value_or(Value::Null());
    }
    return Value::Null();
  }
};

// Map stages run one row at a time; reduce stages fold rows into a
// std::map of key groups and reduce them in ascending key order. The
// bodies are the oracle's own per-row ones (reference_udfs.h); only the
// stage schemas and group keys come from the definition.
Result<Rel> RunUdf(const udf::UdfDefinition& def, const udf::Params& params,
                   const Rel& in) {
  OPD_ASSIGN_OR_RETURN(std::vector<RowBody> bodies, RowBodies(def.name));
  if (bodies.size() != def.local_functions.size()) {
    return Status::Internal("reference: stage count mismatch for " +
                            def.name);
  }
  Rel cur = in;
  for (size_t s = 0; s < bodies.size(); ++s) {
    const udf::LocalFunction& lf = def.local_functions[s];
    OPD_ASSIGN_OR_RETURN(Schema schema, lf.out_schema(cur.schema, params));
    Rows next;
    if (lf.kind == udf::LfKind::kMap) {
      for (const Row& row : cur.rows) {
        bodies[s].map(row, cur.schema, params, &next);
      }
    } else {
      OPD_ASSIGN_OR_RETURN(auto keys, Cols(cur.schema, lf.group_keys));
      std::map<Row, Rows, RowLess> groups;
      for (const Row& row : cur.rows) {
        groups[Pick(row, keys)].push_back(row);
      }
      for (const auto& [key, rows] : groups) {
        bodies[s].reduce(rows, cur.schema, params, &next);
      }
    }
    cur = Rel{std::move(schema), std::move(next)};
  }
  return cur;
}

class Interpreter {
 public:
  Interpreter(const ScanFn& scan, const udf::UdfRegistry& udfs)
      : scan_(scan), udfs_(udfs) {}

  // Shared subtrees (plan DAGs) evaluate once.
  Result<const Rel*> Eval(const plan::OpNode& node) {
    auto it = memo_.find(&node);
    if (it != memo_.end()) return &it->second;
    OPD_ASSIGN_OR_RETURN(Rel rel, Compute(node));
    return &memo_.emplace(&node, std::move(rel)).first->second;
  }

 private:
  Result<Rel> Compute(const plan::OpNode& node) {
    if (node.kind == plan::OpKind::kScan) {
      OPD_ASSIGN_OR_RETURN(storage::TablePtr table, scan_(node));
      return Rel{table->schema(), table->rows()};
    }
    std::vector<const Rel*> in;
    for (const plan::OpNodePtr& child : node.children) {
      OPD_ASSIGN_OR_RETURN(const Rel* rel, Eval(*child));
      in.push_back(rel);
    }
    Rel out{node.out_schema, {}};
    switch (node.kind) {
      case plan::OpKind::kScan:
        break;
      case plan::OpKind::kProject: {
        OPD_ASSIGN_OR_RETURN(auto cols, Cols(in[0]->schema, node.project));
        for (const Row& row : in[0]->rows) out.rows.push_back(Pick(row, cols));
        break;
      }
      case plan::OpKind::kFilter:
        OPD_RETURN_NOT_OK(Filter(node.filter, *in[0], &out.rows));
        break;
      case plan::OpKind::kJoin:
        OPD_RETURN_NOT_OK(Join(node, *in[0], *in[1], &out.rows));
        break;
      case plan::OpKind::kGroupByAgg:
        OPD_RETURN_NOT_OK(GroupBy(node, *in[0], &out.rows));
        break;
      case plan::OpKind::kUdf:
        return Udf(node.udf, *in[0]);
    }
    return out;
  }

  Status Filter(const plan::FilterCond& cond, const Rel& in, Rows* out) {
    if (cond.kind == plan::FilterCond::Kind::kCompare) {
      OPD_ASSIGN_OR_RETURN(size_t c, Col(in.schema, cond.column));
      for (const Row& row : in.rows) {
        if (afk::EvalCmp(row[c], cond.op, cond.literal)) out->push_back(row);
      }
      return Status::OK();
    }
    OPD_ASSIGN_OR_RETURN(const udf::PredicateFn* fn,
                         udfs_.FindPredicate(cond.fn_name));
    OPD_ASSIGN_OR_RETURN(auto cols, Cols(in.schema, cond.arg_columns));
    udf::Params params;
    if (!cond.params.empty()) params["params"] = Value(cond.params);
    for (const Row& row : in.rows) {
      if ((*fn)(Pick(row, cols), params)) out->push_back(row);
    }
    return Status::OK();
  }

  Status Join(const plan::OpNode& node, const Rel& left, const Rel& right,
              Rows* out) {
    std::vector<size_t> lkeys, rkeys;
    for (const auto& [l, r] : node.join.pairs) {
      OPD_ASSIGN_OR_RETURN(size_t li, Col(left.schema, l));
      OPD_ASSIGN_OR_RETURN(size_t ri, Col(right.schema, r));
      lkeys.push_back(li);
      rkeys.push_back(ri);
    }
    // Each output column comes from the left input when it has one of that
    // name, otherwise from the right.
    std::vector<std::pair<bool, size_t>> from;
    for (const auto& col : node.out_schema.columns()) {
      if (auto li = left.schema.IndexOf(col.name)) {
        from.emplace_back(true, *li);
      } else {
        OPD_ASSIGN_OR_RETURN(size_t ri, Col(right.schema, col.name));
        from.emplace_back(false, ri);
      }
    }
    for (const Row& l : left.rows) {
      for (const Row& r : right.rows) {
        if (Pick(l, lkeys) != Pick(r, rkeys)) continue;
        Row row;
        for (const auto& [is_left, i] : from) {
          row.push_back(is_left ? l[i] : r[i]);
        }
        out->push_back(std::move(row));
      }
    }
    return Status::OK();
  }

  Status GroupBy(const plan::OpNode& node, const Rel& in, Rows* out) {
    const auto& aggs = node.group.aggs;
    OPD_ASSIGN_OR_RETURN(auto keys, Cols(in.schema, node.group.keys));
    std::vector<std::optional<size_t>> inputs;
    for (const plan::AggSpec& spec : aggs) {
      if (spec.input.empty()) {
        inputs.push_back(std::nullopt);  // COUNT(*)
      } else {
        OPD_ASSIGN_OR_RETURN(size_t i, Col(in.schema, spec.input));
        inputs.push_back(i);
      }
    }
    std::map<Row, std::vector<Agg>, RowLess> groups;
    for (const Row& row : in.rows) {
      auto [it, inserted] = groups.try_emplace(Pick(row, keys));
      if (inserted) it->second.resize(aggs.size());
      for (size_t a = 0; a < aggs.size(); ++a) {
        it->second[a].Add(inputs[a] ? row[*inputs[a]] : Value(int64_t{1}));
      }
    }
    const auto& out_cols = node.out_schema.columns();
    for (const auto& [key, states] : groups) {
      Row row = key;
      for (size_t a = 0; a < aggs.size(); ++a) {
        row.push_back(
            states[a].Finish(aggs[a].fn, out_cols[keys.size() + a].type));
      }
      out->push_back(std::move(row));
    }
    return Status::OK();
  }

  Result<Rel> Udf(const plan::UdfInvocation& call, const Rel& in) {
    OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                         udfs_.Find(call.udf_name));
    return RunUdf(*def, call.params, in);
  }

  const ScanFn& scan_;
  const udf::UdfRegistry& udfs_;
  std::map<const plan::OpNode*, Rel> memo_;
};

// `rows` in ascending Value order: the multiset form results compare in.
Rows Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end(), RowLess());
  return rows;
}

std::string RowString(const Row& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i].ToString();
  }
  return s + ")";
}

}  // namespace

Result<Rows> Evaluate(const plan::OpNodePtr& root, const ScanFn& scan,
                      const udf::UdfRegistry& udfs) {
  Interpreter interpreter(scan, udfs);
  OPD_ASSIGN_OR_RETURN(const Rel* rel, interpreter.Eval(*root));
  return rel->rows;
}

Result<Rows> EvaluateUdf(const udf::UdfDefinition& def,
                         const storage::Table& input,
                         const udf::Params& params) {
  OPD_ASSIGN_OR_RETURN(Rel rel, RunUdf(def, params,
                                       Rel{input.schema(), input.rows()}));
  return std::move(rel.rows);
}

ScanFn StoreScans(const catalog::Catalog& catalog,
                  const catalog::ViewStore& views, const storage::Dfs& dfs) {
  return [&](const plan::OpNode& scan) -> Result<storage::TablePtr> {
    if (scan.view_id >= 0) {
      OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* def,
                           views.Find(scan.view_id));
      return dfs.Peek(def->dfs_path);
    }
    OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* entry,
                         catalog.Find(scan.table));
    return dfs.Peek(entry->dfs_path);
  };
}

Result<Rows> EvaluatePlan(Session& session, plan::Plan plan) {
  OPD_RETURN_NOT_OK(session.optimizer().Prepare(&plan));
  return Evaluate(plan.root(),
                  StoreScans(session.catalog(), session.views(), session.dfs()),
                  session.udfs());
}

Result<Rows> EvaluateOql(Session& session, const std::string& oql) {
  OPD_ASSIGN_OR_RETURN(plan::Plan plan, oql::ParseQuery(oql));
  return EvaluatePlan(session, std::move(plan));
}

::testing::AssertionResult SameRows(const Rows& expected, const Rows& actual) {
  const Rows want = Sorted(expected);
  const Rows got = Sorted(actual);
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (!(want[i] == got[i])) {
      return ::testing::AssertionFailure()
             << "sorted row " << i << ": got " << RowString(got[i])
             << ", reference " << RowString(want[i]);
    }
  }
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, reference " << want.size();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace opd::reference
