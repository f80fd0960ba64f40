#include "plan/plan_node.h"

#include "common/check.h"
#include "common/string_utils.h"

namespace presto {

namespace {

void PrintTree(const PlanNode& node, int indent, const PlanAnnotator& annotator,
               std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += node.Label();
  *out += "  => ";
  *out += node.output().ToString();
  *out += "\n";
  if (annotator) {
    std::string annotation = annotator(node);
    size_t start = 0;
    while (start < annotation.size()) {
      size_t end = annotation.find('\n', start);
      if (end == std::string::npos) end = annotation.size();
      out->append(static_cast<size_t>(indent) * 2 + 4, ' ');
      out->append(annotation, start, end - start);
      *out += "\n";
      start = end + 1;
    }
  }
  for (const auto& child : node.children()) {
    PrintTree(*child, indent + 1, annotator, out);
  }
}

std::string KeyList(const std::vector<int>& keys) {
  std::vector<std::string> parts;
  parts.reserve(keys.size());
  for (int k : keys) parts.push_back("#" + std::to_string(k));
  return Join(parts, ", ");
}

std::string SortKeyList(const std::vector<SortKey>& keys) {
  std::vector<std::string> parts;
  parts.reserve(keys.size());
  for (const auto& k : keys) {
    parts.push_back("#" + std::to_string(k.column) +
                    (k.ascending ? " ASC" : " DESC"));
  }
  return Join(parts, ", ");
}

}  // namespace

std::string PlanToString(const PlanNode& root) {
  std::string out;
  PrintTree(root, 0, nullptr, &out);
  return out;
}

std::string PlanToString(const PlanNode& root,
                         const PlanAnnotator& annotator) {
  std::string out;
  PrintTree(root, 0, annotator, &out);
  return out;
}

PlanNodePtr WithChildren(const PlanNode& node, int new_id,
                         std::vector<PlanNodePtr> children) {
  PRESTO_CHECK(children.size() == node.children().size());
  switch (node.kind()) {
    case PlanNodeKind::kFilter: {
      const auto& f = static_cast<const FilterNode&>(node);
      return std::make_shared<FilterNode>(new_id, f.predicate(),
                                          std::move(children[0]));
    }
    case PlanNodeKind::kProject: {
      const auto& p = static_cast<const ProjectNode&>(node);
      return std::make_shared<ProjectNode>(new_id, p.expressions(), p.output(),
                                           std::move(children[0]));
    }
    case PlanNodeKind::kAggregate: {
      const auto& a = static_cast<const AggregateNode&>(node);
      return std::make_shared<AggregateNode>(new_id, a.step(), a.group_keys(),
                                             a.aggregates(), a.output(),
                                             std::move(children[0]));
    }
    case PlanNodeKind::kJoin: {
      const auto& j = static_cast<const JoinNode&>(node);
      return std::make_shared<JoinNode>(
          new_id, j.join_type(), j.left_keys(), j.right_keys(),
          j.residual_filter(), j.distribution(), j.output(),
          std::move(children[0]), std::move(children[1]));
    }
    case PlanNodeKind::kSort: {
      const auto& s = static_cast<const SortNode&>(node);
      return std::make_shared<SortNode>(new_id, s.keys(),
                                        std::move(children[0]));
    }
    case PlanNodeKind::kTopN: {
      const auto& t = static_cast<const TopNNode&>(node);
      return std::make_shared<TopNNode>(new_id, t.keys(), t.n(), t.partial(),
                                        std::move(children[0]));
    }
    case PlanNodeKind::kLimit: {
      const auto& l = static_cast<const LimitNode&>(node);
      return std::make_shared<LimitNode>(new_id, l.n(), l.partial(),
                                         std::move(children[0]));
    }
    case PlanNodeKind::kWindow: {
      const auto& w = static_cast<const WindowNode&>(node);
      return std::make_shared<WindowNode>(new_id, w.partition_keys(),
                                          w.order_keys(), w.functions(),
                                          w.output(), std::move(children[0]));
    }
    case PlanNodeKind::kUnionAll:
      return std::make_shared<UnionAllNode>(new_id, node.output(),
                                            std::move(children));
    case PlanNodeKind::kOutput: {
      const auto& o = static_cast<const OutputNode&>(node);
      return std::make_shared<OutputNode>(new_id, o.column_names(),
                                          std::move(children[0]));
    }
    case PlanNodeKind::kTableWrite: {
      const auto& tw = static_cast<const TableWriteNode&>(node);
      return std::make_shared<TableWriteNode>(new_id, tw.connector(),
                                              tw.table(), tw.output(),
                                              std::move(children[0]));
    }
    case PlanNodeKind::kExchange: {
      const auto& e = static_cast<const ExchangeNode&>(node);
      return std::make_shared<ExchangeNode>(new_id, e.exchange_kind(),
                                            e.scope(), e.partition_keys(),
                                            std::move(children[0]));
    }
    case PlanNodeKind::kTableScan:
    case PlanNodeKind::kValues:
    case PlanNodeKind::kRemoteSource:
      break;
  }
  PRESTO_UNREACHABLE();
}

std::string TableScanNode::Label() const {
  std::string out = "TableScan[" + connector_ + "." + table_->name();
  if (!layout_id_.empty()) out += " layout=" + layout_id_;
  out += "]";
  if (!predicates_.empty()) {
    std::vector<std::string> preds;
    preds.reserve(predicates_.size());
    for (const auto& p : predicates_) preds.push_back(p.ToString());
    out += " pushed={" + Join(preds, " AND ") + "}";
  }
  return out;
}

std::string FilterNode::Label() const {
  return "Filter[" + predicate_->ToString() + "]";
}

std::string ProjectNode::Label() const {
  std::vector<std::string> parts;
  parts.reserve(expressions_.size());
  for (const auto& e : expressions_) parts.push_back(e->ToString());
  return "Project[" + Join(parts, ", ") + "]";
}

std::string AggregateNode::Label() const {
  std::string step;
  switch (step_) {
    case AggregationStep::kSingle:
      step = "Single";
      break;
    case AggregationStep::kPartial:
      step = "Partial";
      break;
    case AggregationStep::kFinal:
      step = "Final";
      break;
  }
  std::vector<std::string> aggs;
  aggs.reserve(aggregates_.size());
  for (const auto& a : aggregates_) aggs.push_back(a.output_name);
  return "Aggregate(" + step + ")[keys=(" + KeyList(group_keys_) + ") aggs=(" +
         Join(aggs, ", ") + ")]";
}

std::string JoinNode::Label() const {
  std::string dist;
  switch (distribution_) {
    case JoinDistribution::kUnset:
      dist = "";
      break;
    case JoinDistribution::kPartitioned:
      dist = " dist=partitioned";
      break;
    case JoinDistribution::kBroadcast:
      dist = " dist=broadcast";
      break;
    case JoinDistribution::kColocated:
      dist = " dist=colocated";
      break;
  }
  std::string out = std::string(sql::JoinTypeToString(join_type_)) + "Join[";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += "#" + std::to_string(left_keys_[i]) + " = R#" +
           std::to_string(right_keys_[i]);
  }
  if (residual_filter_ != nullptr) {
    out += " residual=" + residual_filter_->ToString();
  }
  return out + dist + "]";
}

std::string SortNode::Label() const {
  return "Sort[" + SortKeyList(keys_) + "]";
}

std::string TopNNode::Label() const {
  return std::string("TopN") + (partial_ ? "(Partial)" : "") + "[" +
         SortKeyList(keys_) + " limit=" + std::to_string(n_) + "]";
}

std::string LimitNode::Label() const {
  return std::string("Limit") + (partial_ ? "(Partial)" : "") + "[" +
         std::to_string(n_) + "]";
}

std::string WindowNode::Label() const {
  std::vector<std::string> fns;
  fns.reserve(functions_.size());
  for (const auto& f : functions_) fns.push_back(f.output_name);
  return "Window[partition=(" + KeyList(partition_keys_) + ") order=(" +
         SortKeyList(order_keys_) + ") fns=(" + Join(fns, ", ") + ")]";
}

std::string ValuesNode::Label() const {
  return "Values[" + std::to_string(rows_.size()) + " rows]";
}

std::string UnionAllNode::Label() const { return "UnionAll"; }

std::string OutputNode::Label() const {
  return "Output[" + Join(column_names_, ", ") + "]";
}

std::string TableWriteNode::Label() const {
  return "TableWrite[" + connector_ + "." + table_->name() + "]";
}

std::string RemoteSourceNode::Label() const {
  std::string kind;
  switch (exchange_kind_) {
    case ExchangeKind::kGather:
      kind = "gather";
      break;
    case ExchangeKind::kRepartition:
      kind = "repartition";
      break;
    case ExchangeKind::kBroadcast:
      kind = "broadcast";
      break;
    case ExchangeKind::kRoundRobin:
      kind = "round-robin";
      break;
  }
  return "RemoteSource[fragment=" + std::to_string(source_fragment_) + " " +
         kind + "]";
}

std::string ExchangeNode::Label() const {
  std::string kind;
  switch (exchange_kind_) {
    case ExchangeKind::kGather:
      kind = "gather";
      break;
    case ExchangeKind::kRepartition:
      kind = "repartition";
      break;
    case ExchangeKind::kBroadcast:
      kind = "broadcast";
      break;
    case ExchangeKind::kRoundRobin:
      kind = "round-robin";
      break;
  }
  std::string scope = scope_ == ExchangeScope::kRemote ? "Remote" : "Local";
  std::string out = scope + "Exchange[" + kind;
  if (!partition_keys_.empty()) out += " keys=(" + KeyList(partition_keys_) + ")";
  return out + "]";
}

}  // namespace presto
