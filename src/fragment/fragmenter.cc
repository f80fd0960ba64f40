#include "fragment/fragmenter.h"

#include <algorithm>
#include <set>

#include "common/check.h"

namespace presto {

namespace {

// Output partitioning property of a subtree, used for shuffle elision.
// Each partitioning key carries a set of equivalent output columns (an
// equi-join makes both sides' key columns interchangeable): data is
// partitioned by the key if grouping/joining uses ANY alias of it.
struct Property {
  enum class Kind : uint8_t { kArbitrary, kHashed, kSingle, kColocated };
  Kind kind = Kind::kArbitrary;
  std::vector<std::vector<int>> keys;  // alias sets of output column indices
  int bucket_count = 0;
};

struct WithProperty {
  PlanNodePtr node;
  Property property;
};

struct Ctx {
  int next_id = 1000000;
  int NewId() { return next_id++; }
};

PlanNodePtr MakeRemote(ExchangeKind kind, std::vector<int> keys,
                       PlanNodePtr child, Ctx* ctx) {
  return std::make_shared<ExchangeNode>(ctx->NewId(), kind,
                                        ExchangeScope::kRemote,
                                        std::move(keys), std::move(child));
}

// True if every partitioning key has at least one alias in `columns`.
bool KeysCoveredBy(const std::vector<std::vector<int>>& keys,
                   const std::vector<int>& columns) {
  for (const auto& aliases : keys) {
    bool found = false;
    for (int alias : aliases) {
      if (std::find(columns.begin(), columns.end(), alias) !=
          columns.end()) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// True if the property keys align positionally with the exchange keys
// (required for the two sides of a partitioned join to line up).
bool KeysAlign(const std::vector<std::vector<int>>& keys,
               const std::vector<int>& exchange_keys) {
  if (keys.size() != exchange_keys.size()) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (std::find(keys[i].begin(), keys[i].end(), exchange_keys[i]) ==
        keys[i].end()) {
      return false;
    }
  }
  return true;
}

// Splits a kSingle AggregateNode into partial (returned) + final above an
// exchange; `exchange_kind` is kGather (global aggregates) or kRepartition.
PlanNodePtr SplitAggregate(const AggregateNode& agg, PlanNodePtr child,
                           Ctx* ctx) {
  size_t num_keys = agg.group_keys().size();
  // Partial: same keys, intermediate output types.
  RowSchema partial_schema;
  for (size_t k = 0; k < num_keys; ++k) {
    partial_schema.Add(agg.output().at(k).name, agg.output().at(k).type);
  }
  for (const auto& call : agg.aggregates()) {
    partial_schema.Add(call.output_name, call.signature.intermediate_type);
  }
  auto partial = std::make_shared<AggregateNode>(
      ctx->NewId(), AggregationStep::kPartial, agg.group_keys(),
      agg.aggregates(), partial_schema, std::move(child));

  std::vector<int> exchange_keys;
  for (size_t k = 0; k < num_keys; ++k) {
    exchange_keys.push_back(static_cast<int>(k));
  }
  PlanNodePtr exchange =
      num_keys == 0
          ? MakeRemote(ExchangeKind::kGather, {}, partial, ctx)
          : MakeRemote(ExchangeKind::kRepartition, exchange_keys, partial,
                       ctx);

  // Final: keys are the first columns of the partial output; each aggregate
  // merges the corresponding intermediate column.
  std::vector<int> final_keys;
  for (size_t k = 0; k < num_keys; ++k) {
    final_keys.push_back(static_cast<int>(k));
  }
  std::vector<AggregateCall> final_calls;
  for (size_t a = 0; a < agg.aggregates().size(); ++a) {
    AggregateCall call = agg.aggregates()[a];
    call.arg_column = static_cast<int>(num_keys + a);
    final_calls.push_back(std::move(call));
  }
  return std::make_shared<AggregateNode>(
      ctx->NewId(), AggregationStep::kFinal, std::move(final_keys),
      std::move(final_calls), agg.output(), std::move(exchange));
}

class ExchangePlanner {
 public:
  explicit ExchangePlanner(Ctx* ctx) : ctx_(ctx) {}

  WithProperty Add(const PlanNodePtr& node) {
    switch (node->kind()) {
      case PlanNodeKind::kTableScan: {
        // Bucketed layouts give a co-located (bucket-aligned) property; the
        // optimizer encodes the choice by setting layout_id, and connectors
        // name bucketed layouts "bucketed:<column>:<count>". The property's
        // keys are the bucket column's positions in the scan output — data
        // is only guaranteed task-local per those keys.
        const auto& scan = static_cast<const TableScanNode&>(*node);
        Property prop;
        prop.kind = Property::Kind::kArbitrary;
        if (!scan.layout_id().empty()) {
          prop.kind = Property::Kind::kColocated;
          const std::string& id = scan.layout_id();
          size_t first = id.find(':');
          size_t last = id.rfind(':');
          if (first != std::string::npos && last != std::string::npos &&
              last > first) {
            std::string column = id.substr(first + 1, last - first - 1);
            auto idx = scan.output().IndexOf(column);
            if (idx.has_value()) {
              prop.keys.push_back({static_cast<int>(*idx)});
            }
          }
        }
        return {node, prop};
      }
      case PlanNodeKind::kValues:
        return {node, {Property::Kind::kSingle, {}, 0}};
      case PlanNodeKind::kFilter: {
        WithProperty child = Add(node->child());
        return {WithChildren(*node, ctx_->NewId(), {child.node}),
                child.property};
      }
      case PlanNodeKind::kProject: {
        const auto& project = static_cast<const ProjectNode&>(*node);
        WithProperty child = Add(node->child());
        Property prop = child.property;
        if (prop.kind == Property::Kind::kHashed ||
            prop.kind == Property::Kind::kColocated) {
          // Remap partitioning keys through pass-through column refs; an
          // alias survives if any projection passes it through.
          std::vector<std::vector<int>> remapped;
          bool ok = true;
          for (const auto& aliases : prop.keys) {
            std::vector<int> out;
            for (int key : aliases) {
              for (size_t i = 0; i < project.expressions().size(); ++i) {
                const auto& e = project.expressions()[i];
                if (e->kind() == ExprKind::kColumnRef &&
                    e->column() == key) {
                  out.push_back(static_cast<int>(i));
                }
              }
            }
            if (out.empty()) {
              ok = false;
              break;
            }
            remapped.push_back(std::move(out));
          }
          if (ok) {
            prop.keys = std::move(remapped);
          } else if (prop.kind == Property::Kind::kHashed) {
            prop = {Property::Kind::kArbitrary, {}, 0};
          } else {
            // Still bucket-aligned physically, but with unknown keys no
            // further shuffle elision is safe.
            prop.keys.clear();
          }
        }
        return {WithChildren(*node, ctx_->NewId(), {child.node}), prop};
      }
      case PlanNodeKind::kAggregate: {
        const auto& agg = static_cast<const AggregateNode&>(*node);
        WithProperty child = Add(node->child());
        PRESTO_CHECK(agg.step() == AggregationStep::kSingle);
        if (agg.group_keys().empty()) {
          if (child.property.kind == Property::Kind::kSingle) {
            // Already on one task: aggregate in place.
            return {WithChildren(*node, ctx_->NewId(), {child.node}),
                    {Property::Kind::kSingle, {}, 0}};
          }
          return {SplitAggregate(agg, child.node, ctx_),
                  {Property::Kind::kSingle, {}, 0}};
        }
        // Shuffle elision: input already partitioned on a (non-empty)
        // subset of the group keys => every group is task-local. A
        // co-located (bucketed) input only covers its bucket columns.
        bool elide =
            child.property.kind == Property::Kind::kSingle ||
            ((child.property.kind == Property::Kind::kHashed ||
              child.property.kind == Property::Kind::kColocated) &&
             !child.property.keys.empty() &&
             KeysCoveredBy(child.property.keys, agg.group_keys()));
        if (elide) {
          Property prop = child.property;
          if (prop.kind == Property::Kind::kHashed ||
              prop.kind == Property::Kind::kColocated) {
            // Output keys: positions of the partitioning keys among the
            // group-key outputs.
            std::vector<std::vector<int>> out_keys;
            for (const auto& aliases : prop.keys) {
              std::vector<int> out;
              for (int key : aliases) {
                for (size_t k = 0; k < agg.group_keys().size(); ++k) {
                  if (agg.group_keys()[k] == key) {
                    out.push_back(static_cast<int>(k));
                  }
                }
              }
              if (!out.empty()) out_keys.push_back(std::move(out));
            }
            prop.keys = std::move(out_keys);
          }
          return {WithChildren(*node, ctx_->NewId(), {child.node}), prop};
        }
        PlanNodePtr split = SplitAggregate(agg, child.node, ctx_);
        Property prop;
        prop.kind = Property::Kind::kHashed;
        for (size_t k = 0; k < agg.group_keys().size(); ++k) {
          prop.keys.push_back({static_cast<int>(k)});
        }
        return {std::move(split), prop};
      }
      case PlanNodeKind::kJoin: {
        const auto& join = static_cast<const JoinNode&>(*node);
        WithProperty left = Add(join.child(0));
        WithProperty right = Add(join.child(1));
        PlanNodePtr lnode = left.node;
        PlanNodePtr rnode = right.node;
        Property prop;
        JoinDistribution dist = join.distribution();
        // Cross joins and unset distributions default to broadcasting the
        // build side.
        if (dist == JoinDistribution::kUnset) {
          dist = join.left_keys().empty() ? JoinDistribution::kBroadcast
                                          : JoinDistribution::kPartitioned;
        }
        switch (dist) {
          case JoinDistribution::kColocated: {
            // Connector-aligned buckets: no exchange on either side. The
            // join makes the right-side key columns aliases of the left's.
            prop = left.property;
            int left_width = static_cast<int>(join.child(0)->output().size());
            for (auto& aliases : prop.keys) {
              std::vector<int> extra;
              for (int alias : aliases) {
                for (size_t i = 0; i < join.left_keys().size(); ++i) {
                  if (join.left_keys()[i] == alias) {
                    extra.push_back(left_width + join.right_keys()[i]);
                  }
                }
              }
              aliases.insert(aliases.end(), extra.begin(), extra.end());
            }
            break;
          }
          case JoinDistribution::kBroadcast:
            rnode = MakeRemote(ExchangeKind::kBroadcast, {}, rnode, ctx_);
            prop = left.property;
            break;
          case JoinDistribution::kPartitioned: {
            bool left_ok = left.property.kind == Property::Kind::kHashed &&
                           KeysAlign(left.property.keys, join.left_keys());
            bool right_ok = right.property.kind == Property::Kind::kHashed &&
                            KeysAlign(right.property.keys,
                                      join.right_keys());
            if (!left_ok) {
              lnode = MakeRemote(ExchangeKind::kRepartition,
                                 join.left_keys(), lnode, ctx_);
            }
            if (!right_ok) {
              rnode = MakeRemote(ExchangeKind::kRepartition,
                                 join.right_keys(), rnode, ctx_);
            }
            prop.kind = Property::Kind::kHashed;
            // Both sides' key columns are equivalent in the join output.
            {
              int left_width =
                  static_cast<int>(join.child(0)->output().size());
              for (size_t i = 0; i < join.left_keys().size(); ++i) {
                prop.keys.push_back({join.left_keys()[i],
                                     left_width + join.right_keys()[i]});
              }
            }
            break;
          }
          case JoinDistribution::kUnset:
            PRESTO_UNREACHABLE();
        }
        return {std::make_shared<JoinNode>(
                    ctx_->NewId(), join.join_type(), join.left_keys(),
                    join.right_keys(), join.residual_filter(), dist,
                    join.output(), std::move(lnode), std::move(rnode)),
                prop};
      }
      case PlanNodeKind::kSort: {
        WithProperty child = Add(node->child());
        PlanNodePtr input = child.node;
        if (child.property.kind != Property::Kind::kSingle) {
          input = MakeRemote(ExchangeKind::kGather, {}, input, ctx_);
        }
        return {WithChildren(*node, ctx_->NewId(), {std::move(input)}),
                {Property::Kind::kSingle, {}, 0}};
      }
      case PlanNodeKind::kTopN: {
        const auto& topn = static_cast<const TopNNode&>(*node);
        WithProperty child = Add(node->child());
        if (child.property.kind == Property::Kind::kSingle) {
          return {std::make_shared<TopNNode>(ctx_->NewId(), topn.keys(),
                                             topn.n(), false, child.node),
                  {Property::Kind::kSingle, {}, 0}};
        }
        auto partial = std::make_shared<TopNNode>(
            ctx_->NewId(), topn.keys(), topn.n(), /*partial=*/true,
            child.node);
        PlanNodePtr gather =
            MakeRemote(ExchangeKind::kGather, {}, partial, ctx_);
        return {std::make_shared<TopNNode>(ctx_->NewId(), topn.keys(),
                                           topn.n(), false,
                                           std::move(gather)),
                {Property::Kind::kSingle, {}, 0}};
      }
      case PlanNodeKind::kLimit: {
        const auto& limit = static_cast<const LimitNode&>(*node);
        WithProperty child = Add(node->child());
        if (child.property.kind == Property::Kind::kSingle) {
          return {std::make_shared<LimitNode>(ctx_->NewId(), limit.n(), false,
                                              child.node),
                  {Property::Kind::kSingle, {}, 0}};
        }
        auto partial = std::make_shared<LimitNode>(ctx_->NewId(), limit.n(),
                                                   /*partial=*/true,
                                                   child.node);
        PlanNodePtr gather =
            MakeRemote(ExchangeKind::kGather, {}, partial, ctx_);
        return {std::make_shared<LimitNode>(ctx_->NewId(), limit.n(), false,
                                            std::move(gather)),
                {Property::Kind::kSingle, {}, 0}};
      }
      case PlanNodeKind::kWindow: {
        const auto& window = static_cast<const WindowNode&>(*node);
        WithProperty child = Add(node->child());
        PlanNodePtr input = child.node;
        Property prop;
        if (window.partition_keys().empty()) {
          if (child.property.kind != Property::Kind::kSingle) {
            input = MakeRemote(ExchangeKind::kGather, {}, input, ctx_);
          }
          prop = {Property::Kind::kSingle, {}, 0};
        } else {
          bool aligned = child.property.kind == Property::Kind::kSingle ||
                         ((child.property.kind == Property::Kind::kHashed ||
                           child.property.kind ==
                               Property::Kind::kColocated) &&
                          !child.property.keys.empty() &&
                          KeysCoveredBy(child.property.keys,
                                        window.partition_keys()));
          if (!aligned) {
            input = MakeRemote(ExchangeKind::kRepartition,
                               window.partition_keys(), input, ctx_);
            prop.kind = Property::Kind::kHashed;
            for (int k : window.partition_keys()) prop.keys.push_back({k});
          } else {
            prop = child.property;
          }
        }
        return {WithChildren(*node, ctx_->NewId(), {std::move(input)}), prop};
      }
      case PlanNodeKind::kUnionAll: {
        // Each branch is gathered into a single-task union stage.
        std::vector<PlanNodePtr> children;
        for (const auto& c : node->children()) {
          WithProperty child = Add(c);
          PlanNodePtr input = child.node;
          if (child.property.kind != Property::Kind::kSingle) {
            input = MakeRemote(ExchangeKind::kGather, {}, input, ctx_);
          }
          children.push_back(std::move(input));
        }
        return {WithChildren(*node, ctx_->NewId(), std::move(children)),
                {Property::Kind::kSingle, {}, 0}};
      }
      case PlanNodeKind::kTableWrite: {
        WithProperty child = Add(node->child());
        // Writers live in their own scalable stage behind a round-robin
        // exchange so the engine can adapt writer parallelism (§IV-E3).
        PlanNodePtr input =
            MakeRemote(ExchangeKind::kRoundRobin, {}, child.node, ctx_);
        return {WithChildren(*node, ctx_->NewId(), {std::move(input)}),
                {Property::Kind::kArbitrary, {}, 0}};
      }
      case PlanNodeKind::kOutput: {
        WithProperty child = Add(node->child());
        PlanNodePtr input = child.node;
        if (child.property.kind != Property::Kind::kSingle) {
          input = MakeRemote(ExchangeKind::kGather, {}, input, ctx_);
        }
        return {WithChildren(*node, ctx_->NewId(), {std::move(input)}),
                {Property::Kind::kSingle, {}, 0}};
      }
      default:
        PRESTO_CHECK(false);
    }
  }

 private:
  Ctx* ctx_;
};

// ---------------------------------------------------------------------------
// Phase 2: split the exchange-annotated tree into fragments.
// ---------------------------------------------------------------------------

class Splitter {
 public:
  explicit Splitter(Ctx* ctx) : ctx_(ctx) {}

  FragmentedPlan Split(const PlanNodePtr& root) {
    FragmentedPlan plan;
    fragments_ = &plan.fragments;
    plan.root_id = BuildFragment(root, ExchangeKind::kGather, {}, -1);
    // Fix fragment ids to be dense indices (already are, by construction).
    ComputeBuildDependencies(&plan);
    return plan;
  }

 private:
  int BuildFragment(const PlanNodePtr& subtree, ExchangeKind output_kind,
                    std::vector<int> output_keys, int consumer) {
    int id = static_cast<int>(fragments_->size());
    fragments_->push_back(PlanFragment{});
    {
      PlanFragment& f = (*fragments_)[static_cast<size_t>(id)];
      f.id = id;
      f.output_kind = output_kind;
      f.output_keys = std::move(output_keys);
      f.consumer = consumer;
    }
    bool has_scan = false;
    bool has_colocated_scan = false;
    bool has_partitioned_input = false;
    PlanNodePtr root = Strip(subtree, id, &has_scan, &has_colocated_scan,
                             &has_partitioned_input);
    PlanFragment& f = (*fragments_)[static_cast<size_t>(id)];
    f.root = std::move(root);
    if (has_scan) {
      f.partitioning = has_colocated_scan ? PartitioningKind::kColocated
                                          : PartitioningKind::kSource;
    } else if (has_partitioned_input) {
      f.partitioning = PartitioningKind::kHash;
    } else {
      f.partitioning = PartitioningKind::kSingle;
    }
    return id;
  }

  PlanNodePtr Strip(const PlanNodePtr& node, int fragment_id, bool* has_scan,
                    bool* has_colocated_scan, bool* has_partitioned_input) {
    if (node->kind() == PlanNodeKind::kExchange) {
      const auto& exchange = static_cast<const ExchangeNode&>(*node);
      PRESTO_CHECK(exchange.scope() == ExchangeScope::kRemote);
      int child_id = BuildFragment(node->child(), exchange.exchange_kind(),
                                   exchange.partition_keys(), fragment_id);
      (*fragments_)[static_cast<size_t>(fragment_id)].inputs.push_back(
          child_id);
      if (exchange.exchange_kind() == ExchangeKind::kRepartition ||
          exchange.exchange_kind() == ExchangeKind::kRoundRobin) {
        *has_partitioned_input = true;
      }
      return std::make_shared<RemoteSourceNode>(ctx_->NewId(), child_id,
                                                exchange.exchange_kind(),
                                                node->output());
    }
    if (node->kind() == PlanNodeKind::kTableScan) {
      *has_scan = true;
      const auto& scan = static_cast<const TableScanNode&>(*node);
      if (!scan.layout_id().empty()) *has_colocated_scan = true;
      return node;
    }
    return MapChildren(
        node,
        [&](const PlanNodePtr& c) {
          return Strip(c, fragment_id, has_scan, has_colocated_scan,
                       has_partitioned_input);
        },
        [this] { return ctx_->NewId(); });
  }

  // Records, per fragment, the producers of hash-join build sides so the
  // phased scheduler can defer probe-side split enumeration (§IV-D1).
  void ComputeBuildDependencies(FragmentedPlan* plan) {
    for (auto& fragment : plan->fragments) {
      std::set<int> deps;
      CollectBuildSources(*fragment.root, /*under_build=*/false, plan, &deps);
      fragment.build_dependencies.assign(deps.begin(), deps.end());
    }
  }

  void CollectRemoteSources(const PlanNode& node, std::set<int>* out) {
    if (node.kind() == PlanNodeKind::kRemoteSource) {
      out->insert(static_cast<const RemoteSourceNode&>(node)
                      .source_fragment());
    }
    for (const auto& c : node.children()) CollectRemoteSources(*c, out);
  }

  void CollectBuildSources(const PlanNode& node, bool under_build,
                           FragmentedPlan* plan, std::set<int>* deps) {
    if (node.kind() == PlanNodeKind::kRemoteSource && under_build) {
      int source = static_cast<const RemoteSourceNode&>(node)
                       .source_fragment();
      // Include the producer and all its transitive inputs.
      std::vector<int> stack = {source};
      while (!stack.empty()) {
        int id = stack.back();
        stack.pop_back();
        if (!deps->insert(id).second) continue;
        for (int in : plan->fragments[static_cast<size_t>(id)].inputs) {
          stack.push_back(in);
        }
      }
      return;
    }
    if (node.kind() == PlanNodeKind::kJoin) {
      CollectBuildSources(*node.child(0), under_build, plan, deps);
      CollectBuildSources(*node.child(1), /*under_build=*/true, plan, deps);
      return;
    }
    for (const auto& c : node.children()) {
      CollectBuildSources(*c, under_build, plan, deps);
    }
  }

  Ctx* ctx_;
  std::vector<PlanFragment>* fragments_ = nullptr;
};

}  // namespace

const char* PartitioningKindToString(PartitioningKind kind) {
  switch (kind) {
    case PartitioningKind::kSingle:
      return "SINGLE";
    case PartitioningKind::kHash:
      return "HASH";
    case PartitioningKind::kSource:
      return "SOURCE";
    case PartitioningKind::kColocated:
      return "COLOCATED";
  }
  return "?";
}

std::string FragmentedPlan::ToString() const {
  std::string out;
  for (const auto& f : fragments) {
    out += "Fragment " + std::to_string(f.id) + " [" +
           PartitioningKindToString(f.partitioning) + "]";
    if (f.consumer >= 0) {
      out += " -> fragment " + std::to_string(f.consumer);
    }
    if (!f.build_dependencies.empty()) {
      out += " build-deps={";
      for (size_t i = 0; i < f.build_dependencies.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(f.build_dependencies[i]);
      }
      out += "}";
    }
    out += "\n";
    out += PlanToString(*f.root);
  }
  return out;
}

Result<FragmentedPlan> Fragmenter::Fragment(const PlanNodePtr& plan) {
  Ctx ctx;
  ExchangePlanner planner(&ctx);
  WithProperty annotated = planner.Add(plan);
  Splitter splitter(&ctx);
  return splitter.Split(annotated.node);
}

}  // namespace presto
