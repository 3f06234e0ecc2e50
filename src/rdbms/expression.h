#ifndef FSDM_RDBMS_EXPRESSION_H_
#define FSDM_RDBMS_EXPRESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace fsdm::rdbms {

/// Name -> position map for the rows flowing through an operator.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const { return columns_; }
  size_t size() const { return columns_.size(); }
  /// Column position, or npos when absent. Case-sensitive.
  static constexpr size_t npos = ~size_t{0};
  size_t IndexOf(const std::string& name) const;

 private:
  std::vector<std::string> columns_;
  std::unordered_map<std::string, size_t> index_;
};

using Row = std::vector<Value>;

/// Evaluation context: a row and its schema.
struct RowContext {
  const Schema* schema;
  const Row* row;
};

/// Scalar expression tree evaluated against a RowContext. Expressions are
/// immutable and shareable; column references are resolved by name at
/// evaluation time via the context's schema (Bind() can pre-resolve for the
/// hot path). SQL three-valued logic: NULL operands generally yield NULL,
/// and Filter treats non-TRUE as reject.
class Expression {
 public:
  virtual ~Expression() = default;

  virtual Result<Value> Eval(const RowContext& ctx) const = 0;

  /// Pre-resolves column positions against a schema. Must be called (or
  /// not) consistently with the schema used at Eval time.
  virtual Status Bind(const Schema& schema) {
    (void)schema;
    return Status::Ok();
  }

  /// Human-readable form for plan display.
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::shared_ptr<Expression>;

// --- Constructors -----------------------------------------------------------

ExprPtr Lit(Value v);
ExprPtr Col(std::string name);

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right);
inline ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kEq, std::move(l), std::move(r)); }
inline ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kNe, std::move(l), std::move(r)); }
inline ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLt, std::move(l), std::move(r)); }
inline ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kLe, std::move(l), std::move(r)); }
inline ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGt, std::move(l), std::move(r)); }
inline ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(CompareOp::kGe, std::move(l), std::move(r)); }

enum class ArithOp { kAdd, kSub, kMul, kDiv };
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);
inline ExprPtr Add(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kAdd, std::move(l), std::move(r)); }
inline ExprPtr Sub(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kSub, std::move(l), std::move(r)); }
inline ExprPtr Mul(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kMul, std::move(l), std::move(r)); }
inline ExprPtr Div(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kDiv, std::move(l), std::move(r)); }

ExprPtr And(ExprPtr left, ExprPtr right);
ExprPtr Or(ExprPtr left, ExprPtr right);
ExprPtr Not(ExprPtr expr);
ExprPtr IsNull(ExprPtr expr);
ExprPtr IsNotNull(ExprPtr expr);
/// expr IN (v1, v2, ...).
ExprPtr In(ExprPtr expr, std::vector<Value> values);

/// Scalar SQL functions: SUBSTR(s, pos [, len]) (1-based, like Oracle),
/// INSTR(s, sub), LENGTH(s), UPPER(s), LOWER(s), CONCAT(a, b), NVL(a, b),
/// TO_NUMBER(s).
ExprPtr Func(std::string name, std::vector<ExprPtr> args);

/// Wraps an evaluation callback over one column — the extension point the
/// SQL/JSON operators (JSON_VALUE etc.) plug into, mirroring how the paper
/// layers SQL/JSON on the ORDBMS extensibility framework [11, 13]. `fn`
/// reads the column's value in place, without a copy; Bind() pre-resolves
/// the column's position like Col() does.
ExprPtr Callback(std::string label, std::string column,
                 std::function<Result<Value>(const Value&)> fn);

/// `left <op> right` under SQL three-valued logic: NULL (UNKNOWN) when
/// either side is NULL, else a boolean. Fails when the values are not
/// comparable. The rule behind Cmp().
Result<Value> CompareValues(CompareOp op, const Value& left,
                            const Value& right);

/// Filter's acceptance rule: only TRUE passes; FALSE and UNKNOWN reject.
inline bool IsTrue(const Value& v) { return !v.is_null() && v.AsBool(); }

}  // namespace fsdm::rdbms

#endif  // FSDM_RDBMS_EXPRESSION_H_
