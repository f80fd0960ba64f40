#include "optimizer/optimizer.h"

#include <algorithm>

#include "common/check.h"
#include "expr/evaluator.h"
#include "expr/function_registry.h"
#include "optimizer/stats_estimator.h"

namespace presto {

namespace {

using Conjuncts = std::vector<ExprPtr>;

// Build sides estimated below this size are broadcast (§IV-C join strategy
// selection).
constexpr double kBroadcastThresholdBytes = 8.0 * 1024 * 1024;

// Monotonically increasing node-id source for nodes the optimizer creates.
struct Ctx {
  const OptimizerOptions* options;
  MetadataResolver* resolver;
  int next_id = 100000;
  int NewId() { return next_id++; }

  // Rewrites each child with `fn`; rebuilds `node` only if one changed.
  template <typename Fn>
  PlanNodePtr Map(const PlanNodePtr& node, Fn&& fn) {
    return MapChildren(node, fn, [this] { return NewId(); });
  }
};

void SplitConjuncts(const ExprPtr& expr, Conjuncts* out) {
  if (expr->kind() == ExprKind::kAnd) {
    for (const auto& c : expr->children()) SplitConjuncts(c, out);
    return;
  }
  out->push_back(expr);
}

ExprPtr CombineConjuncts(Conjuncts conjuncts) {
  PRESTO_CHECK(!conjuncts.empty());
  if (conjuncts.size() == 1) return conjuncts[0];
  return Expr::MakeAnd(std::move(conjuncts));
}

PlanNodePtr ApplyFilter(PlanNodePtr node, Conjuncts conjuncts, Ctx* ctx) {
  if (conjuncts.empty()) return node;
  return std::make_shared<FilterNode>(
      ctx->NewId(), CombineConjuncts(std::move(conjuncts)), std::move(node));
}

bool RefsInRange(const Expr& expr, int lo, int hi) {
  std::vector<int> cols;
  CollectReferencedColumns(expr, &cols);
  for (int c : cols) {
    if (c < lo || c >= hi) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Constant folding.
// ---------------------------------------------------------------------------

ExprPtr FoldExpr(const ExprPtr& expr) {
  if (expr->kind() == ExprKind::kLiteral ||
      expr->kind() == ExprKind::kColumnRef) {
    return expr;
  }
  std::vector<ExprPtr> children;
  children.reserve(expr->children().size());
  bool changed = false;
  for (const auto& c : expr->children()) {
    auto f = FoldExpr(c);
    changed = changed || f != c;
    children.push_back(std::move(f));
  }
  // AND/OR simplification with literal operands.
  if (expr->kind() == ExprKind::kAnd || expr->kind() == ExprKind::kOr) {
    bool is_and = expr->kind() == ExprKind::kAnd;
    std::vector<ExprPtr> kept;
    for (auto& c : children) {
      if (c->kind() == ExprKind::kLiteral && !c->literal().is_null() &&
          c->literal().type() == TypeKind::kBoolean) {
        bool v = c->literal().AsBoolean();
        if (is_and && !v) return Expr::MakeLiteral(Value::Boolean(false));
        if (!is_and && v) return Expr::MakeLiteral(Value::Boolean(true));
        continue;  // neutral element
      }
      kept.push_back(std::move(c));
    }
    if (kept.empty()) return Expr::MakeLiteral(Value::Boolean(is_and));
    if (kept.size() == 1) return kept[0];
    return is_and ? Expr::MakeAnd(std::move(kept))
                  : Expr::MakeOr(std::move(kept));
  }
  ExprPtr rebuilt =
      changed ? ExprWithChildren(*expr, std::move(children)) : expr;
  if (IsConstantExpr(*rebuilt)) {
    auto value = EvalConstantExpr(*rebuilt);
    if (value.ok()) {
      Value v = *value;
      if (v.type() != rebuilt->type() &&
          rebuilt->type() != TypeKind::kUnknown) {
        v = CastValue(rebuilt->type(), v);
      }
      return Expr::MakeLiteral(std::move(v));
    }
  }
  return rebuilt;
}

PlanNodePtr FoldConstantsInPlan(const PlanNodePtr& node, Ctx* ctx) {
  std::vector<PlanNodePtr> children;
  children.reserve(node->children().size());
  for (const auto& c : node->children()) {
    children.push_back(FoldConstantsInPlan(c, ctx));
  }
  switch (node->kind()) {
    case PlanNodeKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(*node);
      ExprPtr pred = FoldExpr(filter.predicate());
      if (pred->kind() == ExprKind::kLiteral && !pred->literal().is_null() &&
          pred->literal().type() == TypeKind::kBoolean &&
          pred->literal().AsBoolean()) {
        return children[0];  // always-true filter
      }
      return std::make_shared<FilterNode>(ctx->NewId(), std::move(pred),
                                          children[0]);
    }
    case PlanNodeKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(*node);
      std::vector<ExprPtr> exprs;
      exprs.reserve(project.expressions().size());
      for (const auto& e : project.expressions()) exprs.push_back(FoldExpr(e));
      return std::make_shared<ProjectNode>(ctx->NewId(), std::move(exprs),
                                           project.output(), children[0]);
    }
    case PlanNodeKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(*node);
      ExprPtr residual = join.residual_filter();
      if (residual != nullptr) residual = FoldExpr(residual);
      return std::make_shared<JoinNode>(
          ctx->NewId(), join.join_type(), join.left_keys(), join.right_keys(),
          std::move(residual), join.distribution(), join.output(), children[0],
          children[1]);
    }
    default:
      break;
  }
  if (children == node->children()) return node;
  return WithChildren(*node, ctx->NewId(), std::move(children));
}

// ---------------------------------------------------------------------------
// Predicate pushdown.
// ---------------------------------------------------------------------------

// Attempts to express `conj` as a connector ColumnPredicate on `scan`.
std::optional<ColumnPredicate> TryMakeColumnPredicate(
    const Expr& conj, const TableScanNode& scan) {
  auto column_name = [&](const Expr& e) -> std::optional<std::string> {
    if (e.kind() == ExprKind::kColumnRef) {
      return scan.output().at(static_cast<size_t>(e.column())).name;
    }
    return std::nullopt;
  };
  auto literal_of = [](const Expr& e) -> std::optional<Value> {
    if (e.kind() == ExprKind::kLiteral && !e.literal().is_null()) {
      return e.literal();
    }
    return std::nullopt;
  };
  if (conj.kind() == ExprKind::kCall && conj.children().size() == 2) {
    const std::string& fn = conj.function()->name;
    ColumnPredicate::Op op;
    ColumnPredicate::Op flipped;
    if (fn == "eq") {
      op = flipped = ColumnPredicate::Op::kEq;
    } else if (fn == "neq") {
      op = flipped = ColumnPredicate::Op::kNeq;
    } else if (fn == "lt") {
      op = ColumnPredicate::Op::kLt;
      flipped = ColumnPredicate::Op::kGt;
    } else if (fn == "lte") {
      op = ColumnPredicate::Op::kLte;
      flipped = ColumnPredicate::Op::kGte;
    } else if (fn == "gt") {
      op = ColumnPredicate::Op::kGt;
      flipped = ColumnPredicate::Op::kLt;
    } else if (fn == "gte") {
      op = ColumnPredicate::Op::kGte;
      flipped = ColumnPredicate::Op::kLte;
    } else {
      return std::nullopt;
    }
    auto col = column_name(*conj.children()[0]);
    auto lit = literal_of(*conj.children()[1]);
    if (col.has_value() && lit.has_value()) {
      return ColumnPredicate{*col, op, {*lit}};
    }
    col = column_name(*conj.children()[1]);
    lit = literal_of(*conj.children()[0]);
    if (col.has_value() && lit.has_value()) {
      return ColumnPredicate{*col, flipped, {*lit}};
    }
    return std::nullopt;
  }
  if (conj.kind() == ExprKind::kIn) {
    auto col = column_name(*conj.children()[0]);
    if (!col.has_value()) return std::nullopt;
    std::vector<Value> values;
    for (size_t i = 1; i < conj.children().size(); ++i) {
      auto lit = literal_of(*conj.children()[i]);
      if (!lit.has_value()) return std::nullopt;
      values.push_back(*lit);
    }
    return ColumnPredicate{*col, ColumnPredicate::Op::kIn, std::move(values)};
  }
  return std::nullopt;
}

PlanNodePtr PushFilters(const PlanNodePtr& node, Conjuncts incoming,
                        Ctx* ctx) {
  switch (node->kind()) {
    case PlanNodeKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(*node);
      SplitConjuncts(filter.predicate(), &incoming);
      return PushFilters(node->child(), std::move(incoming), ctx);
    }
    case PlanNodeKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(*node);
      Conjuncts pushed;
      pushed.reserve(incoming.size());
      for (const auto& conj : incoming) {
        pushed.push_back(
            ReplaceColumnsWithExprs(conj, project.expressions()));
      }
      return WithChildren(*node, ctx->NewId(),
                          {PushFilters(node->child(), std::move(pushed), ctx)});
    }
    case PlanNodeKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(*node);
      int left_width = static_cast<int>(join.child(0)->output().size());
      int total = static_cast<int>(join.output().size());
      bool push_left = join.join_type() == sql::JoinType::kInner ||
                       join.join_type() == sql::JoinType::kCross ||
                       join.join_type() == sql::JoinType::kLeft;
      bool push_right = join.join_type() == sql::JoinType::kInner ||
                        join.join_type() == sql::JoinType::kCross ||
                        join.join_type() == sql::JoinType::kRight;
      Conjuncts left_conjuncts;
      Conjuncts right_conjuncts;
      Conjuncts remaining;
      for (auto& conj : incoming) {
        if (push_left && RefsInRange(*conj, 0, left_width)) {
          left_conjuncts.push_back(std::move(conj));
        } else if (push_right && RefsInRange(*conj, left_width, total)) {
          std::vector<int> mapping(static_cast<size_t>(total), -1);
          for (int i = left_width; i < total; ++i) {
            mapping[static_cast<size_t>(i)] = i - left_width;
          }
          right_conjuncts.push_back(RemapColumns(conj, mapping));
        } else {
          remaining.push_back(std::move(conj));
        }
      }
      PlanNodePtr left =
          PushFilters(join.child(0), std::move(left_conjuncts), ctx);
      PlanNodePtr right =
          PushFilters(join.child(1), std::move(right_conjuncts), ctx);
      PlanNodePtr rebuilt =
          WithChildren(*node, ctx->NewId(), {std::move(left), std::move(right)});
      return ApplyFilter(std::move(rebuilt), std::move(remaining), ctx);
    }
    case PlanNodeKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(*node);
      int num_keys = static_cast<int>(agg.group_keys().size());
      Conjuncts pushable;
      Conjuncts remaining;
      for (auto& conj : incoming) {
        if (RefsInRange(*conj, 0, num_keys)) {
          // Key output i corresponds to child column group_keys[i].
          std::vector<int> mapping(node->output().size(), -1);
          for (int i = 0; i < num_keys; ++i) {
            mapping[static_cast<size_t>(i)] = agg.group_keys()[
                static_cast<size_t>(i)];
          }
          pushable.push_back(RemapColumns(conj, mapping));
        } else {
          remaining.push_back(std::move(conj));
        }
      }
      PlanNodePtr rebuilt = WithChildren(
          *node, ctx->NewId(),
          {PushFilters(node->child(), std::move(pushable), ctx)});
      return ApplyFilter(std::move(rebuilt), std::move(remaining), ctx);
    }
    case PlanNodeKind::kUnionAll:
    case PlanNodeKind::kSort:
      return ctx->Map(node, [&](const PlanNodePtr& c) {
        return PushFilters(c, incoming, ctx);
      });
    case PlanNodeKind::kTableScan: {
      const auto& scan = static_cast<const TableScanNode&>(*node);
      std::vector<ColumnPredicate> pushed = scan.predicates();
      Conjuncts remaining;
      for (auto& conj : incoming) {
        bool handled = false;
        auto pred = TryMakeColumnPredicate(*conj, scan);
        if (pred.has_value()) {
          PushdownSupport support = ctx->resolver->GetPushdownSupport(
              scan.connector(), *scan.table(), *pred);
          if (support != PushdownSupport::kUnsupported) {
            pushed.push_back(*pred);
            if (support == PushdownSupport::kExact) handled = true;
          }
        }
        if (!handled) remaining.push_back(std::move(conj));
      }
      PlanNodePtr rebuilt = std::make_shared<TableScanNode>(
          ctx->NewId(), scan.connector(), scan.table(), scan.columns(),
          scan.output(), std::move(pushed), scan.layout_id(), scan.stats());
      return ApplyFilter(std::move(rebuilt), std::move(remaining), ctx);
    }
    default:
      // Limit/TopN/Window/Values/Output/TableWrite: keep the filter above,
      // but continue pushing inside.
      return ApplyFilter(ctx->Map(node,
                                  [ctx](const PlanNodePtr& c) {
                                    return PushFilters(c, {}, ctx);
                                  }),
                         std::move(incoming), ctx);
  }
}

// ---------------------------------------------------------------------------
// Column pruning.
// ---------------------------------------------------------------------------

struct Pruned {
  PlanNodePtr node;
  std::vector<int> mapping;  // old column index -> new index (-1 if dropped)
};

std::vector<int> IdentityMapping(size_t n) {
  std::vector<int> m(n);
  for (size_t i = 0; i < n; ++i) m[i] = static_cast<int>(i);
  return m;
}

void RequireExpr(const Expr& expr, std::vector<bool>* required) {
  std::vector<int> cols;
  CollectReferencedColumns(expr, &cols);
  for (int c : cols) (*required)[static_cast<size_t>(c)] = true;
}

Pruned PruneColumns(const PlanNodePtr& node, const std::vector<bool>& required,
                    Ctx* ctx);

// Prunes a child requiring everything (no pruning below this node).
Pruned PruneAll(const PlanNodePtr& node, Ctx* ctx) {
  return PruneColumns(node,
                      std::vector<bool>(node->output().size(), true), ctx);
}

Pruned PruneColumns(const PlanNodePtr& node, const std::vector<bool>& required,
                    Ctx* ctx) {
  switch (node->kind()) {
    case PlanNodeKind::kTableScan: {
      const auto& scan = static_cast<const TableScanNode&>(*node);
      std::vector<int> new_columns;
      RowSchema new_schema;
      std::vector<int> mapping(required.size(), -1);
      for (size_t i = 0; i < required.size(); ++i) {
        if (!required[i]) continue;
        mapping[i] = static_cast<int>(new_columns.size());
        new_columns.push_back(scan.columns()[i]);
        new_schema.Add(scan.output().at(i).name, scan.output().at(i).type);
      }
      auto pruned = std::make_shared<TableScanNode>(
          ctx->NewId(), scan.connector(), scan.table(), std::move(new_columns),
          std::move(new_schema), scan.predicates(), scan.layout_id(),
          scan.stats());
      return {std::move(pruned), std::move(mapping)};
    }
    case PlanNodeKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(*node);
      std::vector<bool> child_required(node->child()->output().size(), false);
      for (size_t i = 0; i < required.size(); ++i) {
        if (required[i]) RequireExpr(*project.expressions()[i],
                                     &child_required);
      }
      Pruned child = PruneColumns(node->child(), child_required, ctx);
      std::vector<ExprPtr> exprs;
      RowSchema schema;
      std::vector<int> mapping(required.size(), -1);
      for (size_t i = 0; i < required.size(); ++i) {
        if (!required[i]) continue;
        mapping[i] = static_cast<int>(exprs.size());
        exprs.push_back(
            RemapColumns(project.expressions()[i], child.mapping));
        schema.Add(project.output().at(i).name, project.output().at(i).type);
      }
      auto pruned = std::make_shared<ProjectNode>(
          ctx->NewId(), std::move(exprs), std::move(schema),
          std::move(child.node));
      return {std::move(pruned), std::move(mapping)};
    }
    case PlanNodeKind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(*node);
      std::vector<bool> child_required = required;
      RequireExpr(*filter.predicate(), &child_required);
      Pruned child = PruneColumns(node->child(), child_required, ctx);
      ExprPtr pred = RemapColumns(filter.predicate(), child.mapping);
      auto pruned = std::make_shared<FilterNode>(ctx->NewId(), std::move(pred),
                                                 std::move(child.node));
      return {std::move(pruned), child.mapping};
    }
    case PlanNodeKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(*node);
      auto left_width = join.child(0)->output().size();
      std::vector<bool> left_required(left_width, false);
      std::vector<bool> right_required(join.child(1)->output().size(), false);
      for (size_t i = 0; i < required.size(); ++i) {
        if (!required[i]) continue;
        if (i < left_width) {
          left_required[i] = true;
        } else {
          right_required[i - left_width] = true;
        }
      }
      for (int k : join.left_keys()) {
        left_required[static_cast<size_t>(k)] = true;
      }
      for (int k : join.right_keys()) {
        right_required[static_cast<size_t>(k)] = true;
      }
      if (join.residual_filter() != nullptr) {
        std::vector<int> cols;
        CollectReferencedColumns(*join.residual_filter(), &cols);
        for (int c : cols) {
          if (static_cast<size_t>(c) < left_width) {
            left_required[static_cast<size_t>(c)] = true;
          } else {
            right_required[static_cast<size_t>(c) - left_width] = true;
          }
        }
      }
      Pruned left = PruneColumns(join.child(0), left_required, ctx);
      Pruned right = PruneColumns(join.child(1), right_required, ctx);
      auto new_left_width = left.node->output().size();
      std::vector<int> mapping(required.size(), -1);
      RowSchema schema;
      for (const auto& col : left.node->output().columns()) {
        schema.Add(col.name, col.type);
      }
      for (const auto& col : right.node->output().columns()) {
        schema.Add(col.name, col.type);
      }
      for (size_t i = 0; i < required.size(); ++i) {
        if (i < left_width) {
          mapping[i] = left.mapping[i];
        } else if (right.mapping[i - left_width] >= 0) {
          mapping[i] = static_cast<int>(new_left_width) +
                       right.mapping[i - left_width];
        }
      }
      std::vector<int> left_keys;
      std::vector<int> right_keys;
      for (size_t i = 0; i < join.left_keys().size(); ++i) {
        left_keys.push_back(
            left.mapping[static_cast<size_t>(join.left_keys()[i])]);
        right_keys.push_back(
            right.mapping[static_cast<size_t>(join.right_keys()[i])]);
      }
      ExprPtr residual = join.residual_filter();
      if (residual != nullptr) {
        std::vector<int> combined(required.size(), -1);
        for (size_t i = 0; i < required.size(); ++i) {
          if (i < left_width) {
            combined[i] = left.mapping[i];
          } else if (right.mapping[i - left_width] >= 0) {
            combined[i] = static_cast<int>(new_left_width) +
                          right.mapping[i - left_width];
          }
        }
        residual = RemapColumns(residual, combined);
      }
      auto pruned = std::make_shared<JoinNode>(
          ctx->NewId(), join.join_type(), std::move(left_keys),
          std::move(right_keys), std::move(residual), join.distribution(),
          std::move(schema), std::move(left.node), std::move(right.node));
      return {std::move(pruned), std::move(mapping)};
    }
    case PlanNodeKind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(*node);
      size_t num_keys = agg.group_keys().size();
      std::vector<bool> child_required(node->child()->output().size(), false);
      for (int k : agg.group_keys()) {
        child_required[static_cast<size_t>(k)] = true;
      }
      std::vector<const AggregateCall*> kept;
      std::vector<int> mapping(required.size(), -1);
      for (size_t a = 0; a < agg.aggregates().size(); ++a) {
        if (!required[num_keys + a]) continue;
        kept.push_back(&agg.aggregates()[a]);
        if (agg.aggregates()[a].arg_column >= 0) {
          child_required[static_cast<size_t>(
              agg.aggregates()[a].arg_column)] = true;
        }
      }
      Pruned child = PruneColumns(node->child(), child_required, ctx);
      std::vector<int> group_keys;
      RowSchema schema;
      for (size_t k = 0; k < num_keys; ++k) {
        group_keys.push_back(
            child.mapping[static_cast<size_t>(agg.group_keys()[k])]);
        mapping[k] = static_cast<int>(k);
        schema.Add(node->output().at(k).name, node->output().at(k).type);
      }
      std::vector<AggregateCall> calls;
      size_t out_idx = num_keys;
      for (size_t a = 0; a < agg.aggregates().size(); ++a) {
        if (!required[num_keys + a]) continue;
        AggregateCall call = agg.aggregates()[a];
        if (call.arg_column >= 0) {
          call.arg_column =
              child.mapping[static_cast<size_t>(call.arg_column)];
        }
        mapping[num_keys + a] = static_cast<int>(out_idx++);
        schema.Add(node->output().at(num_keys + a).name,
                   node->output().at(num_keys + a).type);
        calls.push_back(std::move(call));
      }
      auto pruned = std::make_shared<AggregateNode>(
          ctx->NewId(), agg.step(), std::move(group_keys), std::move(calls),
          std::move(schema), std::move(child.node));
      return {std::move(pruned), std::move(mapping)};
    }
    case PlanNodeKind::kSort:
    case PlanNodeKind::kTopN: {
      const std::vector<SortKey>& keys =
          node->kind() == PlanNodeKind::kSort
              ? static_cast<const SortNode&>(*node).keys()
              : static_cast<const TopNNode&>(*node).keys();
      std::vector<bool> child_required = required;
      for (const auto& k : keys) {
        child_required[static_cast<size_t>(k.column)] = true;
      }
      Pruned child = PruneColumns(node->child(), child_required, ctx);
      std::vector<SortKey> new_keys = keys;
      for (auto& k : new_keys) {
        k.column = child.mapping[static_cast<size_t>(k.column)];
      }
      PlanNodePtr pruned;
      if (node->kind() == PlanNodeKind::kSort) {
        pruned = std::make_shared<SortNode>(ctx->NewId(), std::move(new_keys),
                                            std::move(child.node));
      } else {
        const auto& topn = static_cast<const TopNNode&>(*node);
        pruned = std::make_shared<TopNNode>(ctx->NewId(), std::move(new_keys),
                                            topn.n(), topn.partial(),
                                            std::move(child.node));
      }
      return {std::move(pruned), child.mapping};
    }
    case PlanNodeKind::kLimit: {
      Pruned child = PruneColumns(node->child(), required, ctx);
      return {WithChildren(*node, ctx->NewId(), {std::move(child.node)}),
              std::move(child.mapping)};
    }
    default:
      // Output, TableWrite, Window and UnionAll keep every column and need
      // every input column; leaves are kept as they are.
      return {ctx->Map(node,
                       [ctx](const PlanNodePtr& c) {
                         return PruneAll(c, ctx).node;
                       }),
              IdentityMapping(required.size())};
  }
}

// ---------------------------------------------------------------------------
// Identity-project removal.
// ---------------------------------------------------------------------------

PlanNodePtr RemoveIdentityProjects(const PlanNodePtr& node, Ctx* ctx) {
  PlanNodePtr rebuilt = ctx->Map(node, [ctx](const PlanNodePtr& c) {
    return RemoveIdentityProjects(c, ctx);
  });
  if (rebuilt->kind() != PlanNodeKind::kProject) return rebuilt;
  const auto& project = static_cast<const ProjectNode&>(*rebuilt);
  if (project.expressions().size() != rebuilt->child()->output().size()) {
    return rebuilt;
  }
  for (size_t i = 0; i < project.expressions().size(); ++i) {
    const auto& e = project.expressions()[i];
    if (e->kind() != ExprKind::kColumnRef ||
        e->column() != static_cast<int>(i)) {
      return rebuilt;
    }
  }
  return rebuilt->child();
}

// ---------------------------------------------------------------------------
// Cost-based: join re-ordering, distribution selection, co-location.
// ---------------------------------------------------------------------------

// Finds the TableScan under a chain of Filter / pure-column Project nodes and
// maps `column` (an output column of `node`) back to a scan column name.
// Returns nullopt if the shape is more complex.
struct ScanTrace {
  const TableScanNode* scan = nullptr;
  std::string column_name;
};

std::optional<ScanTrace> TraceToScan(const PlanNode& node, int column) {
  switch (node.kind()) {
    case PlanNodeKind::kTableScan: {
      const auto& scan = static_cast<const TableScanNode&>(node);
      return ScanTrace{&scan,
                       scan.output().at(static_cast<size_t>(column)).name};
    }
    case PlanNodeKind::kFilter:
      return TraceToScan(*node.child(), column);
    case PlanNodeKind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(node);
      const auto& e = project.expressions()[static_cast<size_t>(column)];
      if (e->kind() != ExprKind::kColumnRef) return std::nullopt;
      return TraceToScan(*node.child(), e->column());
    }
    default:
      return std::nullopt;
  }
}

// Rebuilds a subtree replacing the scan's layout (used once co-location is
// detected). The subtree must be the Filter/Project/Scan chain TraceToScan
// accepted.
PlanNodePtr WithLayout(const PlanNodePtr& node, const std::string& layout_id,
                       Ctx* ctx) {
  if (node->kind() != PlanNodeKind::kTableScan) {
    return WithChildren(*node, ctx->NewId(),
                        {WithLayout(node->child(), layout_id, ctx)});
  }
  const auto& scan = static_cast<const TableScanNode&>(*node);
  return std::make_shared<TableScanNode>(
      ctx->NewId(), scan.connector(), scan.table(), scan.columns(),
      scan.output(), scan.predicates(), layout_id, scan.stats());
}

// Checks whether both join inputs are bucketed identically on the join keys
// (via the connector Data Layout API); returns the layout ids to pin.
struct ColocationMatch {
  std::string left_layout;
  std::string right_layout;
};

std::optional<ColocationMatch> FindColocation(const JoinNode& join,
                                              Ctx* ctx) {
  if (join.left_keys().empty()) return std::nullopt;
  std::vector<std::string> left_cols;
  std::vector<std::string> right_cols;
  const TableScanNode* left_scan = nullptr;
  const TableScanNode* right_scan = nullptr;
  for (size_t i = 0; i < join.left_keys().size(); ++i) {
    auto l = TraceToScan(*join.child(0), join.left_keys()[i]);
    auto r = TraceToScan(*join.child(1), join.right_keys()[i]);
    if (!l.has_value() || !r.has_value()) return std::nullopt;
    if (left_scan == nullptr) left_scan = l->scan;
    if (right_scan == nullptr) right_scan = r->scan;
    if (l->scan != left_scan || r->scan != right_scan) return std::nullopt;
    left_cols.push_back(l->column_name);
    right_cols.push_back(r->column_name);
  }
  auto lt = ctx->resolver->Resolve(left_scan->connector(),
                                   left_scan->table()->name());
  auto rt = ctx->resolver->Resolve(right_scan->connector(),
                                   right_scan->table()->name());
  if (!lt.ok() || !rt.ok()) return std::nullopt;
  const std::vector<DataLayout>& left_layouts = (*lt)->layouts;
  const std::vector<DataLayout>& right_layouts = (*rt)->layouts;
  for (const auto& ll : left_layouts) {
    if (ll.bucket_count <= 0 || ll.partition_columns != left_cols) continue;
    for (const auto& rl : right_layouts) {
      if (rl.bucket_count != ll.bucket_count ||
          rl.partition_columns != right_cols) {
        continue;
      }
      return ColocationMatch{ll.id, rl.id};
    }
  }
  return std::nullopt;
}

// Restores the original column order after joins were commuted/reordered.
PlanNodePtr RestoreOrder(PlanNodePtr node, const std::vector<int>& positions,
                         const RowSchema& schema, Ctx* ctx) {
  bool identity = node->output().size() == positions.size();
  if (identity) {
    for (size_t i = 0; i < positions.size(); ++i) {
      if (positions[i] != static_cast<int>(i)) {
        identity = false;
        break;
      }
    }
  }
  if (identity) return node;
  std::vector<ExprPtr> exprs;
  for (size_t i = 0; i < positions.size(); ++i) {
    exprs.push_back(Expr::MakeColumn(
        positions[i],
        node->output().at(static_cast<size_t>(positions[i])).type));
  }
  return std::make_shared<ProjectNode>(ctx->NewId(), std::move(exprs), schema,
                                       std::move(node));
}

// Flattened inner-join chain.
struct JoinChain {
  std::vector<PlanNodePtr> relations;  // in original left-to-right order
  std::vector<int> offsets;            // global column offset per relation
  struct Edge {
    int left_global;
    int right_global;
  };
  std::vector<Edge> edges;
  std::vector<ExprPtr> residuals;  // in global coordinates
  RowSchema schema;                // original join output schema
};

bool FlattenInnerChain(const PlanNodePtr& node, int offset, JoinChain* chain) {
  if (node->kind() == PlanNodeKind::kJoin) {
    const auto& join = static_cast<const JoinNode&>(*node);
    if (join.join_type() == sql::JoinType::kInner &&
        !join.left_keys().empty() &&
        join.distribution() == JoinDistribution::kUnset) {
      int left_width = static_cast<int>(join.child(0)->output().size());
      if (!FlattenInnerChain(join.child(0), offset, chain)) return false;
      if (!FlattenInnerChain(join.child(1), offset + left_width, chain)) {
        return false;
      }
      for (size_t i = 0; i < join.left_keys().size(); ++i) {
        chain->edges.push_back({offset + join.left_keys()[i],
                                offset + left_width + join.right_keys()[i]});
      }
      if (join.residual_filter() != nullptr) {
        // Residual in join-local coordinates == global with this offset.
        std::vector<int> mapping;
        for (size_t i = 0; i < join.output().size(); ++i) {
          mapping.push_back(offset + static_cast<int>(i));
        }
        chain->residuals.push_back(
            RemapColumns(join.residual_filter(), mapping));
      }
      return true;
    }
  }
  chain->relations.push_back(node);
  chain->offsets.push_back(offset);
  return true;
}

PlanNodePtr ReorderChain(const JoinChain& chain, Ctx* ctx) {
  size_t n = chain.relations.size();
  // Estimates per relation; bail out if any are unknown.
  std::vector<PlanEstimate> estimates(n);
  for (size_t i = 0; i < n; ++i) {
    estimates[i] = EstimatePlan(*chain.relations[i]);
    if (!estimates[i].known()) return nullptr;
  }
  auto relation_of_global = [&](int global) {
    for (size_t i = n; i-- > 0;) {
      if (global >= chain.offsets[i]) return i;
    }
    PRESTO_UNREACHABLE();
  };

  std::vector<bool> used(n, false);
  // global column -> position in the tree built so far (-1 = not included).
  int total_cols = chain.offsets.back() +
                   static_cast<int>(chain.relations.back()->output().size());
  std::vector<int> position(static_cast<size_t>(total_cols), -1);

  // Start from the smallest relation that has at least one edge.
  size_t start = 0;
  double best = -1;
  for (size_t i = 0; i < n; ++i) {
    bool has_edge = false;
    for (const auto& e : chain.edges) {
      if (relation_of_global(e.left_global) == i ||
          relation_of_global(e.right_global) == i) {
        has_edge = true;
        break;
      }
    }
    if (!has_edge) continue;
    if (best < 0 || estimates[i].rows < best) {
      best = estimates[i].rows;
      start = i;
    }
  }
  PlanNodePtr current = chain.relations[start];
  used[start] = true;
  for (size_t c = 0; c < chain.relations[start]->output().size(); ++c) {
    position[static_cast<size_t>(chain.offsets[start]) + c] =
        static_cast<int>(c);
  }

  for (size_t step = 1; step < n; ++step) {
    // Candidates: unused relations connected to the current set.
    double best_rows = -1;
    size_t best_rel = n;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const auto& e : chain.edges) {
        size_t lr = relation_of_global(e.left_global);
        size_t rr = relation_of_global(e.right_global);
        if ((used[lr] && rr == i) || (used[rr] && lr == i)) {
          connected = true;
          break;
        }
      }
      if (!connected) continue;
      // Estimate result of joining i into the current set: approximate with
      // |current| * |i| / max key ndv ~ use the simpler |current|*sel where
      // sel = 1/max(rows). Use EstimatePlan on a trial join below instead.
      double trial = EstimatePlan(*current).known()
                         ? EstimatePlan(*current).rows * estimates[i].rows /
                               std::max(1.0, std::max(
                                                 EstimatePlan(*current).rows,
                                                 estimates[i].rows))
                         : estimates[i].rows;
      if (best_rows < 0 || trial < best_rows) {
        best_rows = trial;
        best_rel = i;
      }
    }
    if (best_rel == n) {
      // Disconnected relation: give up (keep original plan).
      return nullptr;
    }
    // Join the current set with best_rel, putting the smaller side on the
    // build (right) side of the hash join.
    const PlanNodePtr& rel = chain.relations[best_rel];
    int current_width = static_cast<int>(current->output().size());
    int rel_width = static_cast<int>(rel->output().size());
    double current_rows = EstimatePlan(*current).rows;
    bool rel_is_build = estimates[best_rel].rows <= current_rows;
    std::vector<int> inside_keys;    // positions in `current`
    std::vector<int> incoming_keys;  // positions in `rel`
    for (const auto& e : chain.edges) {
      size_t lr = relation_of_global(e.left_global);
      size_t rr = relation_of_global(e.right_global);
      int inside = -1;
      int incoming = -1;
      if (used[lr] && rr == best_rel) {
        inside = e.left_global;
        incoming = e.right_global;
      } else if (used[rr] && lr == best_rel) {
        inside = e.right_global;
        incoming = e.left_global;
      } else {
        continue;
      }
      inside_keys.push_back(position[static_cast<size_t>(inside)]);
      incoming_keys.push_back(incoming - chain.offsets[best_rel]);
    }
    PlanNodePtr probe = rel_is_build ? current : rel;
    PlanNodePtr build = rel_is_build ? rel : current;
    std::vector<int> left_keys = rel_is_build ? inside_keys : incoming_keys;
    std::vector<int> right_keys = rel_is_build ? incoming_keys : inside_keys;
    RowSchema schema;
    for (const auto& col : probe->output().columns()) {
      schema.Add(col.name, col.type);
    }
    for (const auto& col : build->output().columns()) {
      schema.Add(col.name, col.type);
    }
    current = std::make_shared<JoinNode>(
        ctx->NewId(), sql::JoinType::kInner, std::move(left_keys),
        std::move(right_keys), nullptr, JoinDistribution::kUnset,
        std::move(schema), std::move(probe), std::move(build));
    if (rel_is_build) {
      for (int c = 0; c < rel_width; ++c) {
        position[static_cast<size_t>(chain.offsets[best_rel] + c)] =
            current_width + c;
      }
    } else {
      // Existing columns shift right by rel_width; rel occupies the front.
      for (auto& p : position) {
        if (p >= 0) p += rel_width;
      }
      for (int c = 0; c < rel_width; ++c) {
        position[static_cast<size_t>(chain.offsets[best_rel] + c)] = c;
      }
    }
    used[best_rel] = true;
  }

  // Apply residual filters in global coordinates remapped to tree positions.
  if (!chain.residuals.empty()) {
    Conjuncts remapped;
    for (const auto& r : chain.residuals) {
      remapped.push_back(RemapColumns(r, position));
    }
    current = ApplyFilter(std::move(current), std::move(remapped), ctx);
  }
  // Restore original column order.
  return RestoreOrder(std::move(current), position, chain.schema, ctx);
}

PlanNodePtr ApplyCbo(const PlanNodePtr& node, Ctx* ctx);

// Chooses distribution for a single join whose children are final.
PlanNodePtr FinalizeJoin(const JoinNode& join, PlanNodePtr left,
                         PlanNodePtr right, Ctx* ctx) {
  JoinDistribution dist = join.distribution();
  std::string left_layout;
  std::string right_layout;
  if (dist == JoinDistribution::kUnset) {
    // Co-location first: no shuffle at all (§IV-C3 data layout properties).
    JoinNode trial(ctx->NewId(), join.join_type(), join.left_keys(),
                   join.right_keys(), join.residual_filter(),
                   JoinDistribution::kUnset, join.output(), left, right);
    if (auto match = FindColocation(trial, ctx)) {
      dist = JoinDistribution::kColocated;
      left = WithLayout(left, match->left_layout, ctx);
      right = WithLayout(right, match->right_layout, ctx);
    }
  }
  if (dist == JoinDistribution::kUnset) {
    PlanEstimate build = EstimatePlan(*right);
    bool broadcast_safe = join.join_type() != sql::JoinType::kRight &&
                          join.join_type() != sql::JoinType::kFull;
    if (ctx->options->enable_cbo && build.known() && broadcast_safe &&
        build.OutputBytes() < kBroadcastThresholdBytes) {
      dist = JoinDistribution::kBroadcast;
    } else {
      dist = JoinDistribution::kPartitioned;
    }
  }
  return std::make_shared<JoinNode>(
      ctx->NewId(), join.join_type(), join.left_keys(), join.right_keys(),
      join.residual_filter(), dist, join.output(), std::move(left),
      std::move(right));
}

PlanNodePtr ApplyCbo(const PlanNodePtr& node, Ctx* ctx) {
  if (node->kind() == PlanNodeKind::kJoin && ctx->options->enable_cbo) {
    const auto& join = static_cast<const JoinNode&>(*node);
    if (join.join_type() == sql::JoinType::kInner &&
        !join.left_keys().empty() &&
        join.distribution() == JoinDistribution::kUnset) {
      JoinChain chain;
      chain.schema = join.output();
      if (FlattenInnerChain(node, 0, &chain) && chain.relations.size() >= 2) {
        // Recurse into the relations first.
        for (auto& rel : chain.relations) rel = ApplyCbo(rel, ctx);
        PlanNodePtr reordered = ReorderChain(chain, ctx);
        if (reordered != nullptr) {
          // Distribution selection for the joins ReorderChain built, the
          // only unset ones; `reordered` may be a Project/Filter over them.
          std::function<PlanNodePtr(const PlanNodePtr&)> finalize =
              [&](const PlanNodePtr& n) -> PlanNodePtr {
            if (n->kind() == PlanNodeKind::kJoin &&
                static_cast<const JoinNode&>(*n).distribution() ==
                    JoinDistribution::kUnset) {
              PlanNodePtr l = finalize(n->child(0));
              PlanNodePtr r = finalize(n->child(1));
              return FinalizeJoin(static_cast<const JoinNode&>(*n),
                                  std::move(l), std::move(r), ctx);
            }
            if (n->kind() == PlanNodeKind::kJoin ||
                n->kind() == PlanNodeKind::kFilter ||
                n->kind() == PlanNodeKind::kProject) {
              return ctx->Map(n, finalize);
            }
            return n;
          };
          return finalize(reordered);
        }
      }
    }
  }
  // Default: recurse and finalize joins bottom-up.
  if (node->kind() == PlanNodeKind::kJoin) {
    PlanNodePtr left = ApplyCbo(node->child(0), ctx);
    PlanNodePtr right = ApplyCbo(node->child(1), ctx);
    return FinalizeJoin(static_cast<const JoinNode&>(*node), std::move(left),
                        std::move(right), ctx);
  }
  return ctx->Map(node,
                  [ctx](const PlanNodePtr& c) { return ApplyCbo(c, ctx); });
}

}  // namespace

Optimizer::Optimizer(MetadataResolver* resolver, OptimizerOptions options)
    : options_(options), resolver_(resolver) {}

Result<PlanNodePtr> Optimizer::Optimize(PlanNodePtr plan) {
  Ctx ctx{&options_, resolver_};
  plan = FoldConstantsInPlan(plan, &ctx);
  plan = PushFilters(plan, {}, &ctx);
  plan = PruneColumns(plan, std::vector<bool>(plan->output().size(), true),
                      &ctx)
             .node;
  plan = RemoveIdentityProjects(plan, &ctx);
  plan = ApplyCbo(plan, &ctx);
  plan = RemoveIdentityProjects(plan, &ctx);
  return plan;
}

}  // namespace presto
