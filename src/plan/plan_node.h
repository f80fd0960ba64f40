#ifndef PRESTOCPP_PLAN_PLAN_NODE_H_
#define PRESTOCPP_PLAN_PLAN_NODE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "connector/connector.h"
#include "expr/aggregates.h"
#include "expr/expression.h"
#include "sql/ast.h"
#include "types/row_schema.h"

namespace presto {

enum class PlanNodeKind : uint8_t {
  kTableScan,
  kFilter,
  kProject,
  kAggregate,
  kJoin,
  kSort,
  kTopN,
  kLimit,
  kWindow,
  kValues,
  kUnionAll,
  kOutput,
  kTableWrite,
  kExchange,
  kRemoteSource,
};

class PlanNode;
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// Immutable logical/physical plan node (§IV-B3): "an intermediate
/// representation encoded in the form of a tree of plan nodes". The
/// optimizer rewrites trees by constructing new nodes; the fragmenter then
/// splits the tree into stages at Exchange boundaries.
class PlanNode {
 public:
  PlanNode(PlanNodeKind kind, int id, RowSchema output,
           std::vector<PlanNodePtr> children)
      : kind_(kind),
        id_(id),
        output_(std::move(output)),
        children_(std::move(children)) {}
  virtual ~PlanNode() = default;

  PlanNodeKind kind() const { return kind_; }
  int id() const { return id_; }
  const RowSchema& output() const { return output_; }
  const std::vector<PlanNodePtr>& children() const { return children_; }
  const PlanNodePtr& child(size_t i = 0) const { return children_[i]; }

  /// One-line description used by EXPLAIN, e.g. "Filter [(#0 > 10)]".
  virtual std::string Label() const = 0;

 private:
  PlanNodeKind kind_;
  int id_;
  RowSchema output_;
  std::vector<PlanNodePtr> children_;
};

/// Renders the plan tree with indentation (EXPLAIN output).
std::string PlanToString(const PlanNode& root);

/// Produces extra per-node text (possibly multi-line) printed beneath the
/// node's label; empty string for no annotation.
using PlanAnnotator = std::function<std::string(const PlanNode&)>;

/// Renders the plan tree with a per-node annotation (EXPLAIN ANALYZE).
std::string PlanToString(const PlanNode& root, const PlanAnnotator& annotator);

/// Copy of `node` with id `new_id` and `children` in place of its own; every
/// other attribute is kept. This is the one rebuild every plan rewrite
/// shares: a pass constructs only the node kinds it changes. `node` must not
/// be a leaf (TableScan, Values, RemoteSource).
PlanNodePtr WithChildren(const PlanNode& node, int new_id,
                         std::vector<PlanNodePtr> children);

/// Rewrites each child of `node` with `fn`. Returns `node` itself when every
/// child comes back unchanged, else WithChildren(*node, new_id(), ...).
template <typename Fn, typename NewId>
PlanNodePtr MapChildren(const PlanNodePtr& node, Fn&& fn, NewId&& new_id) {
  std::vector<PlanNodePtr> children;
  children.reserve(node->children().size());
  bool changed = false;
  for (const PlanNodePtr& child : node->children()) {
    children.push_back(fn(child));
    changed = changed || children.back() != child;
  }
  if (!changed) return node;
  return WithChildren(*node, new_id(), std::move(children));
}

// ---------------------------------------------------------------------------

class TableScanNode final : public PlanNode {
 public:
  TableScanNode(int id, std::string connector, TableHandlePtr table,
                std::vector<int> columns, RowSchema output,
                std::vector<ColumnPredicate> predicates,
                std::string layout_id, TableStats stats)
      : PlanNode(PlanNodeKind::kTableScan, id, std::move(output), {}),
        connector_(std::move(connector)),
        table_(std::move(table)),
        columns_(std::move(columns)),
        predicates_(std::move(predicates)),
        layout_id_(std::move(layout_id)),
        stats_(std::move(stats)) {}

  const std::string& connector() const { return connector_; }
  const TableHandlePtr& table() const { return table_; }
  /// Ordinals into the table schema, one per output column.
  const std::vector<int>& columns() const { return columns_; }
  /// Conjuncts pushed into the connector.
  const std::vector<ColumnPredicate>& predicates() const {
    return predicates_;
  }
  const std::string& layout_id() const { return layout_id_; }
  const TableStats& stats() const { return stats_; }

  std::string Label() const override;

 private:
  std::string connector_;
  TableHandlePtr table_;
  std::vector<int> columns_;
  std::vector<ColumnPredicate> predicates_;
  std::string layout_id_;
  TableStats stats_;
};

class FilterNode final : public PlanNode {
 public:
  FilterNode(int id, ExprPtr predicate, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kFilter, id, child->output(), {child}),
        predicate_(std::move(predicate)) {}

  const ExprPtr& predicate() const { return predicate_; }
  std::string Label() const override;

 private:
  ExprPtr predicate_;
};

class ProjectNode final : public PlanNode {
 public:
  ProjectNode(int id, std::vector<ExprPtr> expressions, RowSchema output,
              PlanNodePtr child)
      : PlanNode(PlanNodeKind::kProject, id, std::move(output), {child}),
        expressions_(std::move(expressions)) {}

  const std::vector<ExprPtr>& expressions() const { return expressions_; }
  std::string Label() const override;

 private:
  std::vector<ExprPtr> expressions_;
};

/// Aggregation step in the distributed plan (Fig. 3: AggregatePartial feeds
/// AggregateFinal across a shuffle).
enum class AggregationStep : uint8_t { kSingle, kPartial, kFinal };

struct AggregateCall {
  AggregateSignature signature;
  int arg_column = -1;  // -1 for COUNT(*)
  std::string output_name;
};

class AggregateNode final : public PlanNode {
 public:
  AggregateNode(int id, AggregationStep step, std::vector<int> group_keys,
                std::vector<AggregateCall> aggregates, RowSchema output,
                PlanNodePtr child)
      : PlanNode(PlanNodeKind::kAggregate, id, std::move(output), {child}),
        step_(step),
        group_keys_(std::move(group_keys)),
        aggregates_(std::move(aggregates)) {}

  AggregationStep step() const { return step_; }
  const std::vector<int>& group_keys() const { return group_keys_; }
  const std::vector<AggregateCall>& aggregates() const { return aggregates_; }
  std::string Label() const override;

 private:
  AggregationStep step_;
  std::vector<int> group_keys_;
  std::vector<AggregateCall> aggregates_;
};

/// Physical distribution of a join, chosen by the cost-based optimizer
/// (§IV-C "join strategy selection"): partitioned (both sides shuffled on
/// keys), broadcast (build replicated to every probe task), or co-located
/// (both sides bucketed on the keys by the connector — no shuffle at all).
enum class JoinDistribution : uint8_t {
  kUnset,
  kPartitioned,
  kBroadcast,
  kColocated,
};

class JoinNode final : public PlanNode {
 public:
  JoinNode(int id, sql::JoinType join_type, std::vector<int> left_keys,
           std::vector<int> right_keys, ExprPtr residual_filter,
           JoinDistribution distribution, RowSchema output, PlanNodePtr left,
           PlanNodePtr right)
      : PlanNode(PlanNodeKind::kJoin, id, std::move(output), {left, right}),
        join_type_(join_type),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_filter_(std::move(residual_filter)),
        distribution_(distribution) {}

  sql::JoinType join_type() const { return join_type_; }
  /// Equi-join key columns (indices into left/right child outputs). Empty
  /// for cross joins.
  const std::vector<int>& left_keys() const { return left_keys_; }
  const std::vector<int>& right_keys() const { return right_keys_; }
  /// Non-equi residual predicate over [left columns..., right columns...];
  /// may be null.
  const ExprPtr& residual_filter() const { return residual_filter_; }
  JoinDistribution distribution() const { return distribution_; }
  std::string Label() const override;

 private:
  sql::JoinType join_type_;
  std::vector<int> left_keys_;
  std::vector<int> right_keys_;
  ExprPtr residual_filter_;
  JoinDistribution distribution_;
};

struct SortKey {
  int column;
  bool ascending = true;
};

class SortNode final : public PlanNode {
 public:
  SortNode(int id, std::vector<SortKey> keys, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kSort, id, child->output(), {child}),
        keys_(std::move(keys)) {}

  const std::vector<SortKey>& keys() const { return keys_; }
  std::string Label() const override;

 private:
  std::vector<SortKey> keys_;
};

class TopNNode final : public PlanNode {
 public:
  TopNNode(int id, std::vector<SortKey> keys, int64_t n, bool partial,
           PlanNodePtr child)
      : PlanNode(PlanNodeKind::kTopN, id, child->output(), {child}),
        keys_(std::move(keys)),
        n_(n),
        partial_(partial) {}

  const std::vector<SortKey>& keys() const { return keys_; }
  int64_t n() const { return n_; }
  bool partial() const { return partial_; }
  std::string Label() const override;

 private:
  std::vector<SortKey> keys_;
  int64_t n_;
  bool partial_;
};

class LimitNode final : public PlanNode {
 public:
  LimitNode(int id, int64_t n, bool partial, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kLimit, id, child->output(), {child}),
        n_(n),
        partial_(partial) {}

  int64_t n() const { return n_; }
  bool partial() const { return partial_; }
  std::string Label() const override;

 private:
  int64_t n_;
  bool partial_;
};

struct WindowFunction {
  enum class Kind : uint8_t { kRowNumber, kRank, kDenseRank, kAggregate };
  Kind kind;
  /// For kAggregate: which aggregate over arg_column.
  AggregateSignature signature{};
  int arg_column = -1;
  std::string output_name;
  TypeKind result_type;
};

class WindowNode final : public PlanNode {
 public:
  WindowNode(int id, std::vector<int> partition_keys,
             std::vector<SortKey> order_keys,
             std::vector<WindowFunction> functions, RowSchema output,
             PlanNodePtr child)
      : PlanNode(PlanNodeKind::kWindow, id, std::move(output), {child}),
        partition_keys_(std::move(partition_keys)),
        order_keys_(std::move(order_keys)),
        functions_(std::move(functions)) {}

  const std::vector<int>& partition_keys() const { return partition_keys_; }
  const std::vector<SortKey>& order_keys() const { return order_keys_; }
  const std::vector<WindowFunction>& functions() const { return functions_; }
  std::string Label() const override;

 private:
  std::vector<int> partition_keys_;
  std::vector<SortKey> order_keys_;
  std::vector<WindowFunction> functions_;
};

class ValuesNode final : public PlanNode {
 public:
  ValuesNode(int id, RowSchema output, std::vector<std::vector<Value>> rows)
      : PlanNode(PlanNodeKind::kValues, id, std::move(output), {}),
        rows_(std::move(rows)) {}

  const std::vector<std::vector<Value>>& rows() const { return rows_; }
  std::string Label() const override;

 private:
  std::vector<std::vector<Value>> rows_;
};

class UnionAllNode final : public PlanNode {
 public:
  UnionAllNode(int id, RowSchema output, std::vector<PlanNodePtr> children)
      : PlanNode(PlanNodeKind::kUnionAll, id, std::move(output),
                 std::move(children)) {}

  std::string Label() const override;
};

class OutputNode final : public PlanNode {
 public:
  OutputNode(int id, std::vector<std::string> column_names, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kOutput, id, child->output(), {child}),
        column_names_(std::move(column_names)) {}

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  std::string Label() const override;

 private:
  std::vector<std::string> column_names_;
};

class TableWriteNode final : public PlanNode {
 public:
  TableWriteNode(int id, std::string connector, TableHandlePtr table,
                 RowSchema output, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kTableWrite, id, std::move(output), {child}),
        connector_(std::move(connector)),
        table_(std::move(table)) {}

  const std::string& connector() const { return connector_; }
  const TableHandlePtr& table() const { return table_; }
  std::string Label() const override;

 private:
  std::string connector_;
  TableHandlePtr table_;
};

/// Data movement inserted by the fragmenter (§IV-C3): remote exchanges
/// become stage boundaries (shuffles over the in-memory buffered exchange);
/// local exchanges parallelize pipelines within a task (§IV-C4).
enum class ExchangeKind : uint8_t {
  kGather,       // all data to one task
  kRepartition,  // hash-partition on keys
  kBroadcast,    // replicate to all tasks
  kRoundRobin,   // arbitrary distribution (feeds scalable writer stages)
};

enum class ExchangeScope : uint8_t { kRemote, kLocal };

class ExchangeNode final : public PlanNode {
 public:
  ExchangeNode(int id, ExchangeKind exchange_kind, ExchangeScope scope,
               std::vector<int> partition_keys, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kExchange, id, child->output(), {child}),
        exchange_kind_(exchange_kind),
        scope_(scope),
        partition_keys_(std::move(partition_keys)) {}

  ExchangeKind exchange_kind() const { return exchange_kind_; }
  ExchangeScope scope() const { return scope_; }
  const std::vector<int>& partition_keys() const { return partition_keys_; }
  std::string Label() const override;

 private:
  ExchangeKind exchange_kind_;
  ExchangeScope scope_;
  std::vector<int> partition_keys_;
};

/// Leaf of a fragment that consumes the output of another fragment over the
/// shuffle (the consumer end of a remote exchange).
class RemoteSourceNode final : public PlanNode {
 public:
  RemoteSourceNode(int id, int source_fragment, ExchangeKind exchange_kind,
                   RowSchema output)
      : PlanNode(PlanNodeKind::kRemoteSource, id, std::move(output), {}),
        source_fragment_(source_fragment),
        exchange_kind_(exchange_kind) {}

  int source_fragment() const { return source_fragment_; }
  ExchangeKind exchange_kind() const { return exchange_kind_; }
  std::string Label() const override;

 private:
  int source_fragment_;
  ExchangeKind exchange_kind_;
};

}  // namespace presto

#endif  // PRESTOCPP_PLAN_PLAN_NODE_H_
