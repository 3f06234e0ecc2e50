#include "rdbms/expression.h"

#include <algorithm>
#include <cctype>

namespace fsdm::rdbms {

Schema::Schema(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) index_[columns_[i]] = i;
}

size_t Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? npos : it->second;
}

namespace {

// SQL boolean: TRUE/FALSE/UNKNOWN, with UNKNOWN represented as NULL Value.
Value Tribool(bool b) { return Value::Bool(b); }

class LiteralExpr final : public Expression {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  Result<Value> Eval(const RowContext&) const override { return value_; }
  std::string ToString() const override {
    return value_.type() == ScalarType::kString
               ? "'" + value_.AsString() + "'"
               : value_.ToDisplayString();
  }

 private:
  Value value_;
};

Status ColumnNotInSchema(const std::string& name) {
  return Status::NotFound("column '" + name + "' not in schema");
}

/// A named column's position: resolved once by Bind(), or looked up in the
/// context's schema on every read when unbound.
class ColumnSlot {
 public:
  explicit ColumnSlot(std::string name) : name_(std::move(name)) {}

  Status Bind(const Schema& schema) {
    index_ = schema.IndexOf(name_);
    if (index_ == Schema::npos) return ColumnNotInSchema(name_);
    return Status::Ok();
  }

  /// The column's value in ctx's row, by reference.
  Result<const Value*> Read(const RowContext& ctx) const {
    size_t idx = index_;
    if (idx == Schema::npos) {
      idx = ctx.schema->IndexOf(name_);
      if (idx == Schema::npos) return ColumnNotInSchema(name_);
    }
    if (idx >= ctx.row->size()) {
      return Status::Internal("row narrower than schema for '" + name_ + "'");
    }
    return &(*ctx.row)[idx];
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  size_t index_ = Schema::npos;
};

class ColumnExpr final : public Expression {
 public:
  explicit ColumnExpr(std::string name) : slot_(std::move(name)) {}

  Status Bind(const Schema& schema) override { return slot_.Bind(schema); }

  Result<Value> Eval(const RowContext& ctx) const override {
    FSDM_ASSIGN_OR_RETURN(const Value* v, slot_.Read(ctx));
    return *v;
  }

  std::string ToString() const override { return slot_.name(); }

 private:
  ColumnSlot slot_;
};

class CompareExpr final : public Expression {
 public:
  CompareExpr(CompareOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Status Bind(const Schema& schema) override {
    FSDM_RETURN_NOT_OK(left_->Bind(schema));
    return right_->Bind(schema);
  }

  Result<Value> Eval(const RowContext& ctx) const override {
    FSDM_ASSIGN_OR_RETURN(Value l, left_->Eval(ctx));
    FSDM_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx));
    return CompareValues(op_, l, r);
  }

  std::string ToString() const override {
    const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return "(" + left_->ToString() + " " + ops[static_cast<int>(op_)] + " " +
           right_->ToString() + ")";
  }

 private:
  CompareOp op_;
  ExprPtr left_, right_;
};

class ArithExpr final : public Expression {
 public:
  ArithExpr(ArithOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Status Bind(const Schema& schema) override {
    FSDM_RETURN_NOT_OK(left_->Bind(schema));
    return right_->Bind(schema);
  }

  Result<Value> Eval(const RowContext& ctx) const override {
    FSDM_ASSIGN_OR_RETURN(Value l, left_->Eval(ctx));
    FSDM_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx));
    if (l.is_null() || r.is_null()) return Value::Null();
    if (!l.IsNumeric() || !r.IsNumeric()) {
      return Status::InvalidArgument("arithmetic on non-numeric values");
    }
    // Fast exact path for int64 +/-/*; Decimal for everything else except
    // division (double-backed).
    if (l.type() == ScalarType::kInt64 && r.type() == ScalarType::kInt64 &&
        op_ != ArithOp::kDiv) {
      int64_t a = l.AsInt64(), b = r.AsInt64();
      // Overflow falls through to the Decimal path.
      switch (op_) {
        case ArithOp::kAdd:
          if (!__builtin_add_overflow_p(a, b, int64_t{0}))
            return Value::Int64(a + b);
          break;
        case ArithOp::kSub:
          if (!__builtin_sub_overflow_p(a, b, int64_t{0}))
            return Value::Int64(a - b);
          break;
        case ArithOp::kMul:
          if (!__builtin_mul_overflow_p(a, b, int64_t{0}))
            return Value::Int64(a * b);
          break;
        default:
          break;
      }
    }
    if (l.type() == ScalarType::kDouble || r.type() == ScalarType::kDouble ||
        op_ == ArithOp::kDiv) {
      double a = l.NumericAsDouble(), b = r.NumericAsDouble();
      switch (op_) {
        case ArithOp::kAdd:
          return Value::Double(a + b);
        case ArithOp::kSub:
          return Value::Double(a - b);
        case ArithOp::kMul:
          return Value::Double(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          return Value::Double(a / b);
      }
    }
    Decimal a = l.NumericAsDecimal(), b = r.NumericAsDecimal();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Dec(a.Add(b));
      case ArithOp::kSub:
        return Value::Dec(a.Subtract(b));
      case ArithOp::kMul:
        return Value::Dec(a.Multiply(b));
      default:
        return Status::Internal("unreachable");
    }
  }

  std::string ToString() const override {
    const char* ops[] = {"+", "-", "*", "/"};
    return "(" + left_->ToString() + " " + ops[static_cast<int>(op_)] + " " +
           right_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr left_, right_;
};

enum class LogicalOp { kAnd, kOr, kNot };

class LogicalExpr final : public Expression {
 public:
  LogicalExpr(LogicalOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Status Bind(const Schema& schema) override {
    FSDM_RETURN_NOT_OK(left_->Bind(schema));
    if (right_) return right_->Bind(schema);
    return Status::Ok();
  }

  Result<Value> Eval(const RowContext& ctx) const override {
    FSDM_ASSIGN_OR_RETURN(Value l, left_->Eval(ctx));
    if (op_ == LogicalOp::kNot) {
      if (l.is_null()) return Value::Null();
      return Tribool(!l.AsBool());
    }
    // Three-valued AND/OR with short circuit where sound.
    if (op_ == LogicalOp::kAnd) {
      if (!l.is_null() && !l.AsBool()) return Tribool(false);
      FSDM_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx));
      if (!r.is_null() && !r.AsBool()) return Tribool(false);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Tribool(true);
    }
    if (!l.is_null() && l.AsBool()) return Tribool(true);
    FSDM_ASSIGN_OR_RETURN(Value r, right_->Eval(ctx));
    if (!r.is_null() && r.AsBool()) return Tribool(true);
    if (l.is_null() || r.is_null()) return Value::Null();
    return Tribool(false);
  }

  std::string ToString() const override {
    if (op_ == LogicalOp::kNot) return "NOT " + left_->ToString();
    return "(" + left_->ToString() +
           (op_ == LogicalOp::kAnd ? " AND " : " OR ") + right_->ToString() +
           ")";
  }

 private:
  LogicalOp op_;
  ExprPtr left_, right_;
};

class IsNullExpr final : public Expression {
 public:
  IsNullExpr(ExprPtr expr, bool negate)
      : expr_(std::move(expr)), negate_(negate) {}

  Status Bind(const Schema& schema) override { return expr_->Bind(schema); }

  Result<Value> Eval(const RowContext& ctx) const override {
    FSDM_ASSIGN_OR_RETURN(Value v, expr_->Eval(ctx));
    return Tribool(v.is_null() != negate_);
  }

  std::string ToString() const override {
    return expr_->ToString() + (negate_ ? " IS NOT NULL" : " IS NULL");
  }

 private:
  ExprPtr expr_;
  bool negate_;
};

class InExpr final : public Expression {
 public:
  InExpr(ExprPtr expr, std::vector<Value> values)
      : expr_(std::move(expr)), values_(std::move(values)) {}

  Status Bind(const Schema& schema) override { return expr_->Bind(schema); }

  Result<Value> Eval(const RowContext& ctx) const override {
    FSDM_ASSIGN_OR_RETURN(Value v, expr_->Eval(ctx));
    if (v.is_null()) return Value::Null();
    bool saw_null = false;
    for (const Value& candidate : values_) {
      if (candidate.is_null()) {
        saw_null = true;
        continue;
      }
      Result<int> cmp = v.CompareTo(candidate);
      if (cmp.ok() && cmp.value() == 0) return Tribool(true);
    }
    return saw_null ? Value::Null() : Tribool(false);
  }

  std::string ToString() const override {
    std::string s = expr_->ToString() + " IN (";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i) s += ", ";
      s += values_[i].ToDisplayString();
    }
    return s + ")";
  }

 private:
  ExprPtr expr_;
  std::vector<Value> values_;
};

class FuncExpr final : public Expression {
 public:
  FuncExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}

  Status Bind(const Schema& schema) override {
    for (ExprPtr& a : args_) FSDM_RETURN_NOT_OK(a->Bind(schema));
    return Status::Ok();
  }

  Result<Value> Eval(const RowContext& ctx) const override {
    std::vector<Value> args(args_.size());
    for (size_t i = 0; i < args_.size(); ++i) {
      FSDM_ASSIGN_OR_RETURN(args[i], args_[i]->Eval(ctx));
    }
    if (name_ == "NVL") {
      if (args.size() != 2) return Status::InvalidArgument("NVL arity");
      return args[0].is_null() ? args[1] : args[0];
    }
    // Remaining functions are NULL-propagating.
    for (const Value& a : args) {
      if (a.is_null()) return Value::Null();
    }
    if (name_ == "SUBSTR") {
      if (args.size() < 2 || args.size() > 3 ||
          args[0].type() != ScalarType::kString || !args[1].IsNumeric()) {
        return Status::InvalidArgument("SUBSTR(s, pos[, len])");
      }
      const std::string& s = args[0].AsString();
      int64_t pos = static_cast<int64_t>(args[1].NumericAsDouble());
      // Oracle 1-based; 0 behaves like 1; negative counts from the end.
      int64_t start;
      if (pos > 0) {
        start = pos - 1;
      } else if (pos == 0) {
        start = 0;
      } else {
        start = static_cast<int64_t>(s.size()) + pos;
      }
      if (start < 0 || start >= static_cast<int64_t>(s.size())) {
        return Value::Null();
      }
      size_t len = s.size() - start;
      if (args.size() == 3) {
        if (!args[2].IsNumeric()) {
          return Status::InvalidArgument("SUBSTR length must be numeric");
        }
        int64_t want = static_cast<int64_t>(args[2].NumericAsDouble());
        if (want <= 0) return Value::Null();
        len = std::min<size_t>(len, static_cast<size_t>(want));
      }
      return Value::String(s.substr(static_cast<size_t>(start), len));
    }
    if (name_ == "INSTR") {
      if (args.size() != 2 || args[0].type() != ScalarType::kString ||
          args[1].type() != ScalarType::kString) {
        return Status::InvalidArgument("INSTR(s, sub)");
      }
      size_t pos = args[0].AsString().find(args[1].AsString());
      return Value::Int64(pos == std::string::npos
                              ? 0
                              : static_cast<int64_t>(pos) + 1);
    }
    if (name_ == "LENGTH") {
      if (args.size() != 1 || args[0].type() != ScalarType::kString) {
        return Status::InvalidArgument("LENGTH(s)");
      }
      return Value::Int64(static_cast<int64_t>(args[0].AsString().size()));
    }
    if (name_ == "UPPER" || name_ == "LOWER") {
      if (args.size() != 1 || args[0].type() != ScalarType::kString) {
        return Status::InvalidArgument(name_ + "(s)");
      }
      std::string s = args[0].AsString();
      for (char& c : s) {
        c = name_ == "UPPER"
                ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return Value::String(std::move(s));
    }
    if (name_ == "CONCAT") {
      std::string s;
      for (const Value& a : args) s += a.ToDisplayString();
      return Value::String(std::move(s));
    }
    if (name_ == "TO_NUMBER") {
      if (args.size() != 1 || args[0].type() != ScalarType::kString) {
        return Status::InvalidArgument("TO_NUMBER(s)");
      }
      FSDM_ASSIGN_OR_RETURN(Decimal d,
                            Decimal::FromString(args[0].AsString()));
      if (d.IsInteger()) {
        Result<int64_t> i = d.ToInt64();
        if (i.ok()) return Value::Int64(i.value());
      }
      return Value::Dec(std::move(d));
    }
    return Status::NotFound("unknown function " + name_);
  }

  std::string ToString() const override {
    std::string s = name_ + "(";
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i) s += ", ";
      s += args_[i]->ToString();
    }
    return s + ")";
  }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

class CallbackExpr final : public Expression {
 public:
  CallbackExpr(std::string label, std::string column,
               std::function<Result<Value>(const Value&)> fn)
      : label_(std::move(label)),
        slot_(std::move(column)),
        fn_(std::move(fn)) {}

  Status Bind(const Schema& schema) override { return slot_.Bind(schema); }

  Result<Value> Eval(const RowContext& ctx) const override {
    FSDM_ASSIGN_OR_RETURN(const Value* v, slot_.Read(ctx));
    return fn_(*v);
  }
  std::string ToString() const override { return label_; }

 private:
  std::string label_;
  ColumnSlot slot_;
  std::function<Result<Value>(const Value&)> fn_;
};

}  // namespace

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<CompareExpr>(op, std::move(left), std::move(right));
}
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ArithExpr>(op, std::move(left), std::move(right));
}
ExprPtr And(ExprPtr left, ExprPtr right) {
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(left),
                                       std::move(right));
}
ExprPtr Or(ExprPtr left, ExprPtr right) {
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(left),
                                       std::move(right));
}
ExprPtr Not(ExprPtr expr) {
  return std::make_shared<LogicalExpr>(LogicalOp::kNot, std::move(expr),
                                       nullptr);
}
ExprPtr IsNull(ExprPtr expr) {
  return std::make_shared<IsNullExpr>(std::move(expr), false);
}
ExprPtr IsNotNull(ExprPtr expr) {
  return std::make_shared<IsNullExpr>(std::move(expr), true);
}
ExprPtr In(ExprPtr expr, std::vector<Value> values) {
  return std::make_shared<InExpr>(std::move(expr), std::move(values));
}
ExprPtr Func(std::string name, std::vector<ExprPtr> args) {
  return std::make_shared<FuncExpr>(std::move(name), std::move(args));
}
ExprPtr Callback(std::string label, std::string column,
                 std::function<Result<Value>(const Value&)> fn) {
  return std::make_shared<CallbackExpr>(std::move(label), std::move(column),
                                        std::move(fn));
}

Result<Value> CompareValues(CompareOp op, const Value& left,
                            const Value& right) {
  if (left.is_null() || right.is_null()) return Value::Null();  // UNKNOWN
  FSDM_ASSIGN_OR_RETURN(int cmp, left.CompareTo(right));
  switch (op) {
    case CompareOp::kEq:
      return Tribool(cmp == 0);
    case CompareOp::kNe:
      return Tribool(cmp != 0);
    case CompareOp::kLt:
      return Tribool(cmp < 0);
    case CompareOp::kLe:
      return Tribool(cmp <= 0);
    case CompareOp::kGt:
      return Tribool(cmp > 0);
    case CompareOp::kGe:
      return Tribool(cmp >= 0);
  }
  return Status::Internal("bad compare op");
}

}  // namespace fsdm::rdbms
