#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collection/collection.h"
#include "collection/router.h"
#include "rdbms/executor.h"
#include "stats/operator_costs.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fsdm::collection {
namespace {

// Differential test of the routed full scan (one FilteredScan per shard)
// against the plan it replaced: Filter(...Filter(coll.Scan())) with one
// JSON_VALUE / JSON_EXISTS Filter per predicate, built by hand. Both must
// return the same rows, value types included, in the same order — or fail
// with the same status.

using rdbms::CompareOp;

/// Type-tagged rendering of a plan's output, one string per row, or the
/// failure status.
std::vector<std::string> Rows(rdbms::Operator* plan) {
  auto rows = rdbms::Collect(plan);
  if (!rows.ok()) return {"error: " + rows.status().ToString()};
  std::vector<std::string> out;
  for (const rdbms::Row& row : rows.value()) {
    std::string line;
    for (const Value& v : row) {
      line += std::string(ScalarTypeName(v.type())) + ":" +
              v.ToDisplayString() + "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// The pre-fusion full-scan plan, as the router used to stack it.
rdbms::OperatorPtr StackedPlan(const JsonCollection& coll,
                               const std::vector<PathPredicate>& preds) {
  rdbms::OperatorPtr plan = coll.Scan();
  for (const PathPredicate& p : preds) {
    rdbms::ExprPtr e;
    if (p.is_existence()) {
      e = coll.JsonExistsExpr(p.path).MoveValue();
    } else {
      const sqljson::Returning ret =
          p.literal->IsNumeric() ? sqljson::Returning::kNumber
          : p.literal->type() == ScalarType::kString
              ? sqljson::Returning::kString
              : sqljson::Returning::kAny;
      e = rdbms::Cmp(p.op, coll.JsonValueExpr(p.path, ret).MoveValue(),
                     rdbms::Lit(*p.literal));
    }
    plan = rdbms::Filter(std::move(plan), std::move(e));
  }
  return plan;
}

PathPredicate Cmp(std::string path, CompareOp op, Value literal) {
  return PathPredicate::Compare(std::move(path), op, std::move(literal));
}

const std::vector<std::vector<PathPredicate>>& Shapes() {
  static const auto* shapes = new std::vector<std::vector<PathPredicate>>{
      {},
      // Two conjuncts on one path: a range.
      {Cmp("$.num", CompareOp::kGe, Value::Int64(100)),
       Cmp("$.num", CompareOp::kLt, Value::Int64(400))},
      // The same operand three times, once as the last conjunct.
      {Cmp("$.num", CompareOp::kGt, Value::Int64(50)),
       Cmp("$.str", CompareOp::kNe, Value::String("s1")),
       Cmp("$.num", CompareOp::kLe, Value::Int64(300))},
      // Existence plus a comparison on the same path.
      {PathPredicate::Exists("$.num"),
       Cmp("$.num", CompareOp::kNe, Value::Int64(120))},
      {PathPredicate::Exists("$.obj"),
       Cmp("$.obj.k", CompareOp::kEq, Value::Int64(2))},
      // <> on a path some documents lack: NULL rejects.
      {Cmp("$.str", CompareOp::kNe, Value::String("s3"))},
      // Literals of the wrong type: a string against numbers (RETURNING
      // a string), a number against strings (coercion fails to NULL).
      {Cmp("$.num", CompareOp::kEq, Value::String("abc"))},
      {Cmp("$.num", CompareOp::kEq, Value::String("70"))},
      {Cmp("$.str", CompareOp::kGt, Value::Int64(5))},
      // One path under two RETURNING types: two operands.
      {Cmp("$.num", CompareOp::kGe, Value::Int64(10)),
       Cmp("$.num", CompareOp::kNe, Value::String("70"))},
      // A boolean literal compared with numbers fails the query, unless
      // an earlier conjunct has rejected every row.
      {Cmp("$.num", CompareOp::kEq, Value::Bool(true))},
      {Cmp("$.num", CompareOp::kLt, Value::Int64(0)),
       Cmp("$.num", CompareOp::kEq, Value::Bool(true))},
      // Lax array step: member steps unwrap the array of objects.
      {Cmp("$.arr.x", CompareOp::kEq, Value::Int64(1))},
      {Cmp("$.arr.x", CompareOp::kGe, Value::Int64(3)),
       PathPredicate::Exists("$.arr")},
  };
  return *shapes;
}

std::string Doc(int i) {
  std::string doc = "{\"id\":" + std::to_string(i);
  if (i % 5 != 0) {
    doc += ",\"num\":" + std::to_string(i * 10);
  } else if (i % 10 == 0) {
    doc += ",\"num\":\"70\"";  // a number held as a string
  }
  if (i % 3 != 0) doc += ",\"str\":\"s" + std::to_string(i % 4) + "\"";
  if (i % 4 == 0) doc += ",\"obj\":{\"k\":" + std::to_string(i % 3) + "}";
  if (i % 6 == 0) {
    doc += ",\"arr\":[{\"x\":" + std::to_string(i % 5) + "},{\"x\":7}]";
  }
  return doc + "}";
}

class FusedScanTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    stats::OperatorCostModel::Global().Reset();
    CollectionOptions opts;
    opts.shard_count = GetParam();
    // No postings and no IMC: every shape routes to the full scan.
    opts.attach_search_index = false;
    coll_ = JsonCollection::Create(&db_, "F", opts).MoveValue();
    ASSERT_TRUE(coll_->AddVirtualColumn("NUM_VC", "$.num",
                                        sqljson::Returning::kNumber,
                                        /*hidden=*/false)
                    .ok());
    ASSERT_TRUE(coll_->AddVirtualColumn("STR_VC", "$.str",
                                        sqljson::Returning::kString,
                                        /*hidden=*/true)
                    .ok());
    std::vector<size_t> ids;
    for (int i = 0; i < 120; ++i) {
      ids.push_back(coll_->Insert(Value::Int64(i), Doc(i)).MoveValue());
    }
    // Tombstones and in-place replacements.
    for (size_t i = 0; i < ids.size(); i += 7) {
      ASSERT_TRUE(coll_->Delete(ids[i]).ok());
    }
    for (size_t i = 3; i < ids.size(); i += 9) {
      if (i % 7 == 0) continue;
      ASSERT_TRUE(coll_->Replace(ids[i], Value::Int64(static_cast<int>(i)),
                                 Doc(static_cast<int>(i) + 500))
                      .ok());
    }
  }

  void TearDown() override { stats::OperatorCostModel::Global().Reset(); }

  rdbms::Database db_;
  std::unique_ptr<JsonCollection> coll_;
};

TEST_P(FusedScanTest, MatchesStackedFilterPlan) {
  for (size_t s = 0; s < Shapes().size(); ++s) {
    const std::vector<PathPredicate>& preds = Shapes()[s];
    rdbms::OperatorPtr stacked = StackedPlan(*coll_, preds);
    const std::vector<std::string> expected = Rows(stacked.get());

    RoutedPlan routed = coll_->Route(preds).MoveValue();
    const std::string decision = routed.trace.decision.Render();
    EXPECT_NE(decision.find("full-scan"), std::string::npos) << decision;
    EXPECT_EQ(Rows(routed.plan.get()), expected)
        << "shape " << s << "\n" << decision;
  }
  // The shapes exercise rows, empty results and a failure alike.
  EXPECT_GT(Rows(StackedPlan(*coll_, Shapes()[1]).get()).size(), 5u);
  const std::vector<std::string> failed =
      Rows(StackedPlan(*coll_, Shapes()[10]).get());
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].rfind("error: ", 0), 0u) << failed[0];
  EXPECT_TRUE(Rows(StackedPlan(*coll_, Shapes()[11]).get()).empty());
}

TEST_P(FusedScanTest, VisibleVirtualColumnsOnlyInOutput) {
  RoutedPlan routed =
      coll_->Route({Cmp("$.num", CompareOp::kGe, Value::Int64(0))})
          .MoveValue();
  EXPECT_EQ(routed.plan->schema().columns(),
            (std::vector<std::string>{"DID", "JDOC", "NUM_VC"}));
}

// EXPLAIN ANALYZE keeps the stacked shape: one Filter per predicate over
// the Scan leaf, rows in = live rows examined, rows out = rows returned.
TEST_P(FusedScanTest, SpansKeepTheStackedShape) {
  const std::vector<PathPredicate>& preds = Shapes()[2];
  const uint64_t skipped_before =
      telemetry::MetricsRegistry::Global().CounterValue(
          "fsdm_rdbms_scan_rows_skipped_total");
  RoutedPlan routed = coll_->Route(preds).MoveValue();
  const size_t returned = rdbms::Collect(routed.plan.get()).value().size();
  const size_t live = coll_->document_count();
  ASSERT_GT(live, returned);

  std::vector<const telemetry::OperatorSpan*> tops;
  if (GetParam() == 1) {
    tops.push_back(routed.trace.root.get());
  } else {
    for (const auto& c : routed.trace.root->children) tops.push_back(c.get());
  }
  uint64_t examined = 0, out = 0;
  for (const telemetry::OperatorSpan* top : tops) {
    const telemetry::OperatorSpan* span = top;
    for (size_t depth = 0; depth < preds.size(); ++depth) {
      EXPECT_EQ(span->name, "Filter");
      ASSERT_EQ(span->children.size(), 1u);
      span = span->children[0].get();
    }
    EXPECT_EQ(span->name, "Scan");
    EXPECT_TRUE(span->children.empty());
    EXPECT_EQ(top->live_state.load(), telemetry::OperatorSpan::kDone);
    EXPECT_EQ(span->live_state.load(), telemetry::OperatorSpan::kDone);
    examined += span->rows_out.load();
    out += top->rows_out.load();
  }
  EXPECT_EQ(examined, live);
  EXPECT_EQ(out, returned);
  const std::string text = routed.trace.Render();
  EXPECT_NE(text.find("Filter ($.num <= 300)"), std::string::npos) << text;
  if (telemetry::kEnabled) {
    EXPECT_EQ(telemetry::MetricsRegistry::Global().CounterValue(
                  "fsdm_rdbms_scan_rows_skipped_total"),
              skipped_before + live - returned);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, FusedScanTest, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace fsdm::collection
